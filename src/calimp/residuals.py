"""Random residuals for stochastic imputation.

Residuals are mean-zero normal draws with the regression's residual
standard deviation, constrained to each cell's admissible interval by
acceptance/rejection sampling (with an inverse-CDF fallback that leaves
the truncated law unchanged when the interval sits far in the tail).  A
drawn vector is then re-centered by the smallest adjustment keeping every
cell inside its interval while its weighted sum becomes exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.stats import truncnorm

from .adjust import AdjustmentProblem, adjustment_stats, zero_sum_interval_adjust
from .fm import Interval

DEFAULT_MAX_ATTEMPTS = 100


@dataclass(frozen=True)
class ResidualDraw:
    value: float
    attempts: int
    fallback_used: bool


def cell_rng(seed: int, variable_index: int, record_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one cell of one variable."""
    return np.random.default_rng([seed, variable_index, record_index])


def draw_ar_residual(sigma: float, interval: Interval, rng: np.random.Generator) -> ResidualDraw:
    """One normal residual truncated to ``interval``, for ``sigma > 0`` and
    an interval that is not a point (callers settle those cases without a
    stream).

    Plain rejection against N(0, sigma^2) up to ``DEFAULT_MAX_ATTEMPTS``
    proposals; afterwards the value is drawn by inverting the truncated CDF
    instead, which preserves the distribution exactly.
    """
    lo, hi = interval.lower, interval.upper
    if not sigma > 0.0 or interval.is_point():
        raise ValueError(f"needs sigma > 0 and a non-point interval, got {sigma} and [{lo}, {hi}]")

    for attempt in range(1, DEFAULT_MAX_ATTEMPTS + 1):
        x = float(rng.normal(0.0, sigma))
        if lo <= x <= hi:
            return ResidualDraw(x, attempt, False)

    a = lo / sigma
    b = hi / sigma
    u = float(rng.uniform())
    x = float(truncnorm.ppf(u, a, b, loc=0.0, scale=sigma))
    if not np.isfinite(x) or not (lo <= x <= hi):
        # Numerically degenerate far-tail interval: land on the closer side.
        x = float(min(max(0.0 if lo <= 0.0 <= hi else (lo if abs(lo) < abs(hi) else hi), lo), hi))
    return ResidualDraw(x, DEFAULT_MAX_ATTEMPTS, True)


def benchmarked_residuals(
    sigma: float,
    lower,
    upper,
    weights,
    stream: Callable[[int], np.random.Generator],
    feasibility_scale: float = 1.0,
) -> tuple[np.ndarray, dict]:
    """Interval-respecting residual vector with weighted sum exactly zero.

    Cell ``i`` may take residuals in ``[lower[i], upper[i]]``.  With
    ``sigma == 0`` every draw is 0, so the re-centering is the smallest
    zero-sum adjustment into the intervals; otherwise a point interval's
    draw is its value, and only the remaining cells draw, in position
    order, each from the generator ``stream(i)``.  Returns the vector and
    a small dict of sampling statistics, with the re-centering's
    :func:`~calimp.adjust.adjustment_stats` merged in.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    attempts = 0
    fallbacks = 0
    if sigma == 0.0:
        draws = np.zeros(lower.size)
    else:
        draws = lower.copy()
        for i in np.flatnonzero(lower != upper).tolist():
            d = draw_ar_residual(sigma, Interval(float(lower[i]), float(upper[i])), stream(i))
            draws[i] = d.value
            attempts += d.attempts
            fallbacks += int(d.fallback_used)

    problem = AdjustmentProblem(
        predictions=draws,
        lower=lower,
        upper=upper,
        weights=None if weights is None else np.asarray(weights, dtype=float),
    )
    adjustment = zero_sum_interval_adjust(
        problem, target_sum=0.0, feasibility_scale=feasibility_scale
    )
    stats = {"attempts": attempts, "fallbacks": fallbacks, **adjustment_stats(problem, adjustment)}
    return draws + adjustment, stats
