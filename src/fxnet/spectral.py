"""Cross-correlation matrix, deterministic eigendecomposition and random-matrix
reference quantities (Marchenko-Pastur bounds, shuffled surrogates)."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .market_data import PanelError, ReturnPanel, _freeze

SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class CorrelationMatrix:
    values: np.ndarray  # N x N

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def validate(self) -> None:
        c = self.values
        n = self.size
        if c.shape != (n, n):
            raise ValueError(f"correlation matrix must be square, got {c.shape}")
        asym = float(np.abs(c - c.T).max())
        if asym > SYMMETRY_TOL:
            raise ValueError(f"matrix asymmetry {asym:g} exceeds {SYMMETRY_TOL:g}")
        if np.abs(np.diag(c) - 1.0).max() > SYMMETRY_TOL:
            raise ValueError("diagonal deviates from 1")
        if c.min() < -1 - SYMMETRY_TOL or c.max() > 1 + SYMMETRY_TOL:
            raise ValueError("entries fall outside [-1, 1]")


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


def correlation_matrix(rp: ReturnPanel) -> CorrelationMatrix:
    """Pairwise correlations C_ij of the normalized return rows (1/T convention)."""
    r = rp.returns
    t = r.shape[1]
    if t < 2:
        raise PanelError("need at least 2 time steps")
    centered = r - r.mean(axis=1, keepdims=True)
    c = centered @ centered.T / t
    c = (c + c.T) / 2.0
    np.fill_diagonal(c, 1.0)
    cm = CorrelationMatrix(values=_freeze(c))
    cm.validate()
    return cm


def eigendecompose(cm: CorrelationMatrix) -> SpectralDecomposition:
    """LAPACK symmetric eigendecomposition with a fixed ordering and sign convention.

    Eigenvalues are sorted descending by a stable sort, so equal eigenvalues
    keep LAPACK's order; each eigenvector is flipped so that its
    largest-magnitude component is positive, then scaled to sum_i u_ji^2 = N.
    """
    cm.validate()
    n = cm.size
    vals, v = np.linalg.eigh(cm.values)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = v[:, order].T  # row per eigenvector

    for j in range(n):
        dom = int(np.argmax(np.abs(vecs[j])))
        if vecs[j, dom] < 0:
            vecs[j] = -vecs[j]
    vecs *= math.sqrt(n)

    return SpectralDecomposition(eigenvalues=_freeze(vals), eigenvectors=_freeze(vecs))


def rmt_bounds(n: int, t: int) -> RmtBounds:
    """Support bounds (1 -/+ 1/sqrt(Q))^2 of the random (Wishart) eigenvalue
    spectrum at Q = T/N."""
    if n < 2 or t < n:
        raise ValueError(f"require t >= n >= 2 (Q >= 1), got n={n}, t={t}")
    q = t / n
    return RmtBounds(q, (1.0 - 1.0 / math.sqrt(q)) ** 2, (1.0 + 1.0 / math.sqrt(q)) ** 2)


def normal_ks_statistic(sample: np.ndarray) -> float:
    """Two-sided Kolmogorov-Smirnov statistic of a non-empty sample against
    N(0, 1): sup |F_n - Phi| over the sorted sample x_1 <= ... <= x_n, i.e.
    max(i/n - Phi(x_i), Phi(x_i) - (i-1)/n) over i, with
    Phi(x) = erfc(-x / sqrt 2) / 2."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    phi = 0.5 * np.fromiter(map(math.erfc, (-x / math.sqrt(2.0)).tolist()), float, n)
    d_plus = np.max(np.arange(1.0, n + 1) / n - phi)
    d_minus = np.max(phi - np.arange(0.0, n) / n)
    return float(max(d_plus, d_minus))


def shuffle_surrogate(rp: ReturnPanel, seed: int) -> ReturnPanel:
    """Independently permute each return row in time (seeded, reproducible).

    Each row gets its own stream derived from (seed, row index), so the
    output is identical for identical seeds regardless of row evaluation
    order.
    """
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    shuffled = np.array(rp.returns)
    for i in range(rp.n_assets):
        np.random.default_rng([seed, i]).shuffle(shuffled[i])
    return replace(rp, returns=_freeze(shuffled))


def derive_seeds(master_seed: int, count: int) -> list[int]:
    """Deterministic child seeds for independent replicate streams."""
    state = np.random.SeedSequence(master_seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]

