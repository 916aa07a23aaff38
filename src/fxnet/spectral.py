"""Cross-correlation matrix, deterministic eigendecomposition and random-matrix
reference quantities (Marchenko-Pastur bounds, shuffled surrogates)."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .market_data import PanelError, ReturnPanel, _freeze

SYMMETRY_TOL = 1e-12
_KS_CHUNK = 1 << 14  # sample values per chunk of normal_ks_statistic

# (setter, getter) of the thread count of the OpenBLAS in numpy's wheels:
# scipy-openblas in numpy >= 2, OpenBLAS in numpy 1.x
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in descending order; row j of `eigenvectors` is u_j, scaled
    so that sum_i u_ji^2 = N."""

    eigenvalues: np.ndarray  # length N, descending
    eigenvectors: np.ndarray  # N x N, row per eigenvector

    @property
    def size(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True)
class RmtBounds:
    q: float
    lambda_min: float
    lambda_max: float


@functools.cache
def _blas_threads():
    """(set, get) of the thread count of the OpenBLAS numpy loaded, or None
    for a BLAS without a known setter (MKL, Accelerate, a system BLAS).

    The symbols are looked up through numpy's LAPACK extension module, whose
    handle also reaches the libraries it links."""
    from numpy.linalg import _umath_linalg as ext

    try:
        lib = ctypes.CDLL(ext.__file__)
    except OSError:
        return None
    for set_name, get_name in _BLAS_THREAD_SYMBOLS:
        if hasattr(lib, set_name) and hasattr(lib, get_name):
            set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return set_threads, get_threads
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, so that its results
    do not depend on how the library splits the work; the caller's count
    comes back afterwards. A BLAS without a known setter is left as it is."""
    fns = _blas_threads()
    if fns is None:
        yield
        return
    set_threads, get_threads = fns
    saved = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(saved)


def _shuffle_rows(r: np.ndarray, seed: int) -> None:
    """Permute each row of `r` in place with its own stream of (seed, row index)."""
    for i, row in enumerate(r):
        np.random.default_rng([seed, i]).shuffle(row)


def _check_correlation(c: np.ndarray) -> None:
    """Raise ValueError unless c is a finite correlation matrix."""
    n = c.shape[0]
    if c.shape != (n, n):
        raise ValueError(f"correlation matrix must be square, got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("correlation matrix contains non-finite entries")
    asym = float(np.abs(c - c.T).max())
    if asym > SYMMETRY_TOL:
        raise ValueError(f"matrix asymmetry {asym:g} exceeds {SYMMETRY_TOL:g}")
    if np.abs(np.diag(c) - 1.0).max() > SYMMETRY_TOL:
        raise ValueError("diagonal deviates from 1")
    if c.min() < -1 - SYMMETRY_TOL or c.max() > 1 + SYMMETRY_TOL:
        raise ValueError("entries fall outside [-1, 1]")


def _correlation_of(buf: np.ndarray) -> np.ndarray:
    """C of the rows of `buf` (1/T convention), which are centred in place."""
    t = buf.shape[1]
    if t < 2:
        raise PanelError("need at least 2 time steps")
    buf -= buf.mean(axis=1, keepdims=True)
    c = buf @ buf.T / t
    np.fill_diagonal(c, 1.0)
    _check_correlation(c)
    return _freeze(c)


def correlation_matrix(rp: ReturnPanel) -> np.ndarray:
    """Pairwise correlations C_ij of the normalized return rows (1/T convention)."""
    return _correlation_of(np.array(rp.returns))


def surrogate_correlation(rp: ReturnPanel, seed: int, buf: np.ndarray) -> np.ndarray:
    """C of rp's rows each shuffled in time by `_shuffle_rows(·, seed)`, in `buf`,
    an array of rp.returns' shape that is overwritten, so that a caller running
    many surrogates needs one such array instead of two per surrogate."""
    np.copyto(buf, rp.returns)
    _shuffle_rows(buf, seed)
    return _correlation_of(buf)


def eigendecompose(c: np.ndarray) -> SpectralDecomposition:
    """LAPACK symmetric eigendecomposition with a fixed ordering and sign convention.

    Eigenvalues are sorted descending by a stable sort, so equal eigenvalues
    keep LAPACK's order; each eigenvector is flipped so that its
    largest-magnitude component is positive, then scaled to sum_i u_ji^2 = N.
    """
    c = np.asarray(c, dtype=float)
    _check_correlation(c)
    n = c.shape[0]
    vals, v = np.linalg.eigh(c)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = v.T[order]  # row per eigenvector, C-ordered

    dom = vecs[np.arange(n), np.argmax(np.abs(vecs), axis=1)]
    vecs *= np.where(dom < 0, -math.sqrt(n), math.sqrt(n))[:, None]

    return SpectralDecomposition(eigenvalues=_freeze(vals), eigenvectors=_freeze(vecs))


def rmt_bounds(n: int, t: int) -> RmtBounds:
    """Support bounds (1 -/+ 1/sqrt(Q))^2 of the random (Wishart) eigenvalue
    spectrum at Q = T/N; for Q < 1 they bound the nonzero eigenvalues."""
    if n < 2 or t < 2:
        raise ValueError(f"require n >= 2 and t >= 2, got n={n}, t={t}")
    q = t / n
    return RmtBounds(q, (1.0 - 1.0 / math.sqrt(q)) ** 2, (1.0 + 1.0 / math.sqrt(q)) ** 2)


def normal_ks_statistic(sample: np.ndarray) -> float:
    """Two-sided Kolmogorov-Smirnov statistic of a non-empty sample against
    N(0, 1): sup |F_n - Phi| over the sorted sample x_1 <= ... <= x_n, i.e.
    max(i/n - Phi(x_i), Phi(x_i) - (i-1)/n) over i, with
    Phi(x) = erfc(-x / sqrt 2) / 2."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    d = 0.0
    for start in range(0, n, _KS_CHUNK):  # one chunk's temporaries at a time
        xc = x[start:start + _KS_CHUNK]
        phi = 0.5 * np.fromiter(map(math.erfc, (-xc / math.sqrt(2.0)).tolist()), float, xc.size)
        i = np.arange(start, start + xc.size)
        d = max(d, np.max((i + 1) / n - phi), np.max(phi - i / n))
    return float(d)


def derive_seeds(master_seed: int, count: int) -> list[int]:
    """Deterministic child seeds for independent replicate streams."""
    state = np.random.SeedSequence(master_seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]

