"""Power-law tail exponent estimation for return distributions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SIDES = ("positive", "negative")

DEFAULT_TAIL_FRACTION = 0.10
MIN_SAMPLES = 100
MIN_TAIL_POINTS = 10


class TailFitError(ValueError):
    """Tail fit is infeasible on the given samples."""


@dataclass(frozen=True)
class TailFit:
    alpha: float
    tail_fraction: float
    k: int
    x_min: float


def hill_estimate(tail_values: np.ndarray, x_min: float) -> float:
    """Conditional MLE for the CCDF exponent: k / sum of log-excesses over x_min."""
    tail_values = np.asarray(tail_values, dtype=float)
    if x_min <= 0 or np.any(tail_values <= 0):
        raise TailFitError("tail values and x_min must be positive")
    log_excess = np.log(tail_values / x_min)
    total = float(log_excess.sum())
    if total <= 0:
        raise TailFitError("zero log-spacing in tail: samples are degenerate")
    return tail_values.size / total


def fit_tail_exponent(
    samples: np.ndarray,
    side: str = "positive",
    tail_fraction: float = DEFAULT_TAIL_FRACTION,
) -> TailFit:
    """Hill estimate over the top `tail_fraction` order statistics of one tail.

    x_min is the largest order statistic excluded from the tail; tied values at
    x_min are dropped so that every tail point lies strictly above it. A bad
    `side` or `tail_fraction` is a ValueError; a TailFitError means the fit is
    infeasible on these samples.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    x = np.asarray(samples, dtype=float)
    if side == "negative":
        x = -x
    if not 0 < tail_fraction <= 0.5:
        raise ValueError(f"tail_fraction must be in (0, 0.5], got {tail_fraction}")
    n = x.size
    if n < MIN_SAMPLES:
        raise TailFitError(f"need at least {MIN_SAMPLES} samples, got {n}")
    k = math.ceil(tail_fraction * n)
    xs = np.sort(x)
    x_min = float(xs[n - k - 1])
    if x_min <= 0:
        raise TailFitError(f"non-positive tail threshold on side {side!r}")
    tail = xs[n - k :]
    tail = tail[tail > x_min]  # drop ties at the threshold
    if tail.size < MIN_TAIL_POINTS:
        raise TailFitError(
            f"only {tail.size} tail points strictly above x_min, need >= {MIN_TAIL_POINTS}"
        )
    alpha = hill_estimate(tail, x_min)
    return TailFit(alpha=alpha, tail_fraction=tail_fraction, k=int(tail.size), x_min=x_min)

