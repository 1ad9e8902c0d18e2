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
from typing import Sequence

import numpy as np
from scipy.stats import truncnorm

from .adjust import AdjustmentProblem, adjustment_stats, zero_sum_interval_adjust
from .errors import CalimpError
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


def uses_stream(sigma: float, interval: Interval) -> bool:
    """Whether :func:`draw_ar_residual` reads its generator for this cell;
    it does not for a zero sigma or a point interval."""
    return sigma != 0.0 and not interval.is_point()


def draw_ar_residual(
    sigma: float,
    interval: Interval,
    rng: np.random.Generator,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> ResidualDraw:
    """One normal residual truncated to ``interval``.

    Plain rejection against N(0, sigma^2) up to ``max_attempts`` proposals;
    afterwards the value is drawn by inverting the truncated CDF instead,
    which preserves the distribution exactly.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    lo, hi = interval.lower, interval.upper
    if sigma == 0.0:
        if not interval.contains(0.0):
            raise CalimpError(
                f"zero residual variance but 0 is outside the residual interval [{lo}, {hi}]"
            )
        return ResidualDraw(0.0, 0, False)
    if interval.is_point():
        return ResidualDraw(lo, 0, False)

    for attempt in range(1, max_attempts + 1):
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
    return ResidualDraw(x, max_attempts, True)


def benchmarked_residuals(
    sigma: float,
    intervals: Sequence[Interval],
    weights,
    rng,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    feasibility_scale: float = 1.0,
) -> tuple[np.ndarray, dict]:
    """Interval-respecting residual vector with weighted sum exactly zero.

    ``rng`` is one generator (cells drawn in order), one generator per
    cell, or a function from a cell's position to its generator, called
    only for cells whose draw reads a stream (see :func:`uses_stream`), so
    stream-per-cell reproducibility costs nothing for the other cells.
    Returns the vector and a small dict of sampling statistics, with the
    re-centering's :func:`~calimp.adjust.adjustment_stats` merged in.
    """
    m = len(intervals)
    if callable(rng):
        stream = rng
    else:
        rngs = list(rng) if isinstance(rng, (list, tuple)) else [rng] * m
        if len(rngs) != m:
            raise ValueError(f"expected {m} generators, got {len(rngs)}")
        stream = rngs.__getitem__

    draws = np.empty(m)
    attempts = 0
    fallbacks = 0
    for i, interval in enumerate(intervals):
        cell_stream = stream(i) if uses_stream(sigma, interval) else None
        d = draw_ar_residual(sigma, interval, cell_stream, max_attempts=max_attempts)
        draws[i] = d.value
        attempts += d.attempts
        fallbacks += int(d.fallback_used)

    problem = AdjustmentProblem(
        predictions=draws,
        lower=np.array([iv.lower for iv in intervals]),
        upper=np.array([iv.upper for iv in intervals]),
        weights=None if weights is None else np.asarray(weights, dtype=float),
    )
    adjustment = zero_sum_interval_adjust(
        problem, target_sum=0.0, feasibility_scale=feasibility_scale
    )
    stats = {"attempts": attempts, "fallbacks": fallbacks, **adjustment_stats(problem, adjustment)}
    return draws + adjustment, stats
