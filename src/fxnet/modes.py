"""Decomposition of a correlation matrix into global, group and random parts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market_data import _freeze
from .spectral import RmtBounds, SpectralDecomposition

HISTOGRAM_BINS = 51


@dataclass(frozen=True)
class ModeDecomposition:
    n_g: int
    c_global: np.ndarray
    c_group: np.ndarray
    c_random: np.ndarray


def _mode_sum(sd: SpectralDecomposition, start: int, stop: int) -> np.ndarray:
    """Sum of (lambda_j / N) u_j u_j^T over j in [start, stop)."""
    n = sd.size
    u = sd.eigenvectors[start:stop]  # rows
    w = sd.eigenvalues[start:stop] / n
    m = (u.T * w) @ u
    return (m + m.T) / 2.0


def decompose_modes(sd: SpectralDecomposition, n_g: int) -> ModeDecomposition:
    """Split C into the leading (global) mode, the next n_g group modes and the
    remaining random bulk. Eigenvalues are taken in descending order with the
    largest labelled 0."""
    n = sd.size
    if not 0 <= n_g <= n - 1:
        raise ValueError(f"n_g must be in [0, {n - 1}], got {n_g}")
    return ModeDecomposition(
        n_g=n_g,
        c_global=_freeze(_mode_sum(sd, 0, 1)),
        c_group=_freeze(_mode_sum(sd, 1, 1 + n_g)),
        c_random=_freeze(_mode_sum(sd, 1 + n_g, n)),
    )


def select_ng(sd: SpectralDecomposition, bounds: RmtBounds) -> int:
    """Count eigenvalues strictly above the random upper bound, excluding the
    leading one: the n_g in use unless the caller gives an integer."""
    return int(np.sum(sd.eigenvalues[1:] > bounds.lambda_max))


def element_histogram(m: np.ndarray) -> list[tuple[float, float]]:
    """Density histogram of the off-diagonal upper-triangle elements, in
    HISTOGRAM_BINS bins."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    vals = m[np.triu_indices(n, k=1)]
    lo, hi = float(vals.min()), float(vals.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    density, edges = np.histogram(vals, bins=HISTOGRAM_BINS, range=(lo, hi), density=True)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return [(float(c), float(d)) for c, d in zip(centers, density)]
