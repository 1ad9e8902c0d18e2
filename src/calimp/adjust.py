"""Smallest adjustments keeping predictions inside per-cell intervals.

The problem: given predictions ``x``, boxes ``[l, u]`` (sides may be
infinite) and positive weights ``w``, find the adjustment vector ``a``
minimizing the weighted squared size ``sum w_i a_i**2`` subject to the
box and to ``sum w_i a_i = 0`` (so the weighted prediction total is
preserved).  With unit weights this is the classic least-squares
zero-sum adjustment; the weighted form keeps a weighted total fixed and
reduces to the unweighted one when all weights are equal.

By KKT the optimum is ``a_i = clip(lam, l_i - x_i, u_i - x_i)``, with
``lam`` the root of the nondecreasing piecewise-linear weighted sum of
those clips (a continuous quadratic knapsack; Helgason, Kennington & Lall
1980).  ``zero_sum_interval_adjust`` solves it exactly in O(m log m): it
sorts the bounds, finds the segment between breakpoints holding the root
and solves for ``lam`` there in closed form.  A target beyond the box's
:func:`reach` by more than ``DEFAULT_TOL`` times the problem's own scale
raises :class:`InfeasibleAdjustmentError`; a nearer one is clamped into
it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edits import DEFAULT_TOL
from .errors import InfeasibleAdjustmentError
from .regression import as_weights


@dataclass(frozen=True)
class AdjustmentProblem:
    """Predictions with per-cell bounds and unit weights by default."""

    predictions: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.predictions, dtype=float).ravel()
        lo = np.asarray(self.lower, dtype=float).ravel()
        hi = np.asarray(self.upper, dtype=float).ravel()
        if not (x.shape == lo.shape == hi.shape):
            raise ValueError("predictions, lower and upper must share one shape")
        if np.any(lo > hi):
            k = int(np.argmax(lo > hi))
            raise ValueError(f"lower bound exceeds upper bound at position {k}")
        object.__setattr__(self, "predictions", x)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "weights", as_weights(self.weights, x.size))

    @property
    def size(self) -> int:
        return self.predictions.shape[0]


def _shifted_target(problem: AdjustmentProblem, target_sum: float | None) -> float:
    """Required weighted sum of the adjustments."""
    if target_sum is None:
        return 0.0
    return float(target_sum - np.sum(problem.weights * problem.predictions))


def reach(w, lo, hi) -> tuple[float, float]:
    """The least and the most weighted sum ``sum w_i x_i`` over ``x_i`` in
    ``[lo_i, hi_i]``: ``(sum w*lo, sum w*hi)``, infinite where a side is."""
    least = float(np.sum(np.where(np.isneginf(lo), -np.inf, w * lo)))
    most = float(np.sum(np.where(np.isposinf(hi), np.inf, w * hi)))
    return least, most


def _check_feasible(problem: AdjustmentProblem, T: float) -> float:
    """Fail fast on an unreachable target; clamp a near miss within
    ``DEFAULT_TOL`` of the problem's scale."""
    least, most = reach(problem.weights, problem.lower - problem.predictions, problem.upper - problem.predictions)
    scale = max(1.0, float(np.sum(np.abs(problem.weights * problem.predictions))), abs(T))
    if T < least - DEFAULT_TOL * scale or T > most + DEFAULT_TOL * scale:
        raise out_of_reach(T, least, most)
    return float(np.clip(T, least, most))


def out_of_reach(T: float, least: float, most: float) -> InfeasibleAdjustmentError:
    """The error of a required weighted adjustment sum ``T`` outside the
    achievable range ``[least, most]``."""
    return InfeasibleAdjustmentError(
        f"required weighted adjustment sum {T:.6g} lies outside the achievable "
        f"range [{least:.6g}, {most:.6g}]"
    )


def zero_sum_interval_adjust(
    problem: AdjustmentProblem,
    target_sum: float | None = None,
) -> np.ndarray:
    """Adjustment vector from the exact breakpoint solve.

    By default the adjusted values keep the weighted sum of the
    predictions; pass ``target_sum`` to aim the weighted sum of the
    adjusted values somewhere else instead (used when re-centering drawn
    residuals to zero).
    """
    T = _shifted_target(problem, target_sum)
    T = _check_feasible(problem, T)
    w = problem.weights
    lo = problem.lower - problem.predictions
    hi = problem.upper - problem.predictions

    # g(lam) = sum w*clip(lam, lo, hi): sum(w*lo) over finite lo, lam times
    # the weight with lo = -inf, and a ramp of slope +w at each finite lo
    # and -w at each finite hi.  Evaluate it at every breakpoint.
    has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
    breaks = np.concatenate([lo[has_lo], hi[has_hi]])
    ramps = np.concatenate([w[has_lo], -w[has_hi]])
    order = np.argsort(breaks)
    breaks, ramps = breaks[order], ramps[order]
    slope = np.sum(w[~has_lo]) + np.cumsum(ramps)
    g = np.sum(w[has_lo] * lo[has_lo]) + breaks * slope - np.cumsum(ramps * breaks)

    # Between the breakpoints where g first reaches T the cells at a bound
    # are fixed, so lam follows in closed form; on a flat piece every cell
    # is at a bound and any lam on it gives the same answer.
    j = int(np.searchsorted(g, T))
    left = breaks[j - 1] if j > 0 else -np.inf
    right = breaks[j] if j < breaks.size else np.inf
    at_lower = lo >= right
    at_upper = (hi <= left) & ~at_lower
    free_mass = float(np.sum(w[~(at_lower | at_upper)]))
    pinned = np.sum(w[at_lower] * lo[at_lower]) + np.sum(w[at_upper] * hi[at_upper])
    lam = (T - pinned) / free_mass if free_mass > 0 else 0.0
    return np.clip(np.clip(lam, left, right), lo, hi)


def adjustment_stats(problem: AdjustmentProblem, adjustment: np.ndarray) -> dict:
    """``lambda``, the common adjustment of the cells inside their interval
    (``None`` when every cell sits at a bound), and the counts of cells at
    their lower and upper bound (a point interval counts at both)."""
    at_lower = adjustment == problem.lower - problem.predictions
    at_upper = adjustment == problem.upper - problem.predictions
    free = adjustment[~(at_lower | at_upper)]
    return {"lambda": float(free[0]) if free.size else None,
            "at_lower": int(np.sum(at_lower)), "at_upper": int(np.sum(at_upper))}
