"""Regression fits used for predictive mean imputation.

``fit_ols`` is a plain (optionally weighted) least-squares fit on the rows
where the target is observed.  ``fit_benchmarked`` extends it with a second
intercept for the missing rows, chosen in closed form so the weighted sum
of the predictions over the missing rows equals the known remainder of the
column total.  ``log_benchmark_correction`` is the multiplicative analogue
for models fitted on the log scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError, RankDeficiencyError

CALIBRATION_RTOL = 1e-9


@dataclass(frozen=True)
class RegressionFit:
    """Least-squares coefficients plus the usual residual variance."""

    intercept: float
    slopes: np.ndarray
    residual_variance: float
    n_obs: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = _as_matrix(X)
        if X.shape[1] != self.slopes.shape[0]:
            raise ValueError(
                f"expected {self.slopes.shape[0]} predictor column(s), got {X.shape[1]}"
            )
        return self.intercept + X @ self.slopes


@dataclass(frozen=True)
class BenchmarkedFit:
    """A fit whose missing-row predictions are calibrated to a known total.

    ``missing_intercept`` replaces the intercept for the missing rows so
    that the weighted prediction sum equals ``missing_sum_target``, the
    known column total minus the weighted sum of the observed values.
    ``m`` is the weight mass of the missing rows.
    """

    base: RegressionFit
    missing_intercept: float
    missing_sum_target: float
    m: float


def _as_matrix(X, n_rows: int | None = None) -> np.ndarray:
    """Predictor rows as a 2-d array; ``None`` means zero predictor columns."""
    if X is None:
        return np.empty((n_rows or 0, 0))
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValueError("predictor array must be 1- or 2-dimensional")
    return X


def _as_weights(weights, n: int) -> np.ndarray:
    if weights is None:
        return np.ones(n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights must have shape ({n},), got {w.shape}")
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    return w


def _blame_collinear_column(Z: np.ndarray, names: Sequence[str]) -> str:
    """First column that adds nothing to the column space of its predecessors."""
    rank = np.linalg.matrix_rank(Z[:, :1])
    for j in range(1, Z.shape[1]):
        longer = np.linalg.matrix_rank(Z[:, : j + 1])
        if longer <= rank:
            return names[j - 1]
        rank = longer
    return names[-1]


def fit_ols(
    y_obs,
    X_obs,
    weights=None,
    names: Sequence[str] | None = None,
) -> RegressionFit:
    """Weighted least squares of ``y_obs`` on an intercept and ``X_obs``.

    ``weights`` default to ones (plain OLS).  The residual variance uses
    the usual ``n - p - 1`` denominator.  Rank-deficient designs raise
    :class:`RankDeficiencyError` naming the offending column.
    """
    y = np.asarray(y_obs, dtype=float).ravel()
    X = _as_matrix(X_obs, n_rows=y.shape[0])
    n, p = X.shape
    if y.shape[0] != n:
        raise ValueError("response and predictor row counts differ")
    if n <= p + 1:
        raise InsufficientDataError(
            f"need more than {p + 1} observations to fit {p} predictor(s); got {n}"
        )
    w = _as_weights(weights, n)
    names = list(names) if names is not None else [f"x{j}" for j in range(p)]

    sw = np.sqrt(w)
    Z = np.concatenate([np.ones((n, 1)), X], axis=1) * sw[:, None]
    t = y * sw
    coef, _, rank, _ = np.linalg.lstsq(Z, t, rcond=None)
    if rank < p + 1:
        column = _blame_collinear_column(Z, names)
        raise RankDeficiencyError(
            f"design matrix is rank deficient; column {column!r} is collinear "
            "with the preceding columns",
            column=column,
        )
    fitted = Z @ coef
    rss = float(np.sum((t - fitted) ** 2))
    residual_variance = rss / (n - p - 1)
    return RegressionFit(
        intercept=float(coef[0]),
        slopes=coef[1:].copy(),
        residual_variance=max(residual_variance, 0.0),
        n_obs=n,
    )


def fit_benchmarked(
    y_obs,
    X_obs,
    X_mis_rows,
    total_all: float,
    weights_obs=None,
    weights_mis=None,
    names: Sequence[str] | None = None,
) -> BenchmarkedFit:
    """Fit on the observed rows and calibrate the missing-row intercept.

    The slope and observed-row intercept coincide with :func:`fit_ols`; the
    missing-row intercept is the unique constant making the weighted sum of
    the missing-row predictions equal ``total_all`` minus the weighted
    observed sum.
    """
    y = np.asarray(y_obs, dtype=float).ravel()
    X_mis = _as_matrix(X_mis_rows)
    if X_mis.shape[0] == 0:
        raise ValueError("no missing rows: nothing to calibrate")
    base = fit_ols(y, X_obs, weights=weights_obs, names=names)
    if X_mis.shape[1] != base.slopes.shape[0]:
        raise ValueError(
            f"missing rows have {X_mis.shape[1]} predictor column(s), fit has {base.slopes.shape[0]}"
        )
    w_obs = _as_weights(weights_obs, y.shape[0])
    w_mis = _as_weights(weights_mis, X_mis.shape[0])
    missing_sum_target = float(total_all - np.sum(w_obs * y))
    m = float(np.sum(w_mis))
    slope_part = float(np.sum(w_mis * (X_mis @ base.slopes))) if base.slopes.size else 0.0
    missing_intercept = (missing_sum_target - slope_part) / m

    fit = BenchmarkedFit(
        base=base,
        missing_intercept=missing_intercept,
        missing_sum_target=missing_sum_target,
        m=m,
    )
    check = float(np.sum(w_mis * predict_missing(fit, X_mis)))
    if abs(check - missing_sum_target) > CALIBRATION_RTOL * max(1.0, abs(missing_sum_target)):
        raise ArithmeticError(
            f"calibration identity failed: predictions sum to {check!r}, "
            f"target is {missing_sum_target!r}"
        )
    return fit


def predict_missing(fit: BenchmarkedFit, X_mis_rows) -> np.ndarray:
    """Calibrated predictions for the missing rows."""
    X = _as_matrix(X_mis_rows)
    if X.shape[1] != fit.base.slopes.shape[0]:
        raise ValueError(
            f"expected {fit.base.slopes.shape[0]} predictor column(s), got {X.shape[1]}"
        )
    if fit.base.slopes.size == 0:
        return np.full(X.shape[0], fit.missing_intercept)
    return fit.missing_intercept + X @ fit.base.slopes


def log_benchmark_correction(
    fit: RegressionFit,
    z_p_mis,
    original_missing_total: float,
) -> float:
    """Multiplier replacing ``exp(intercept)`` after a log-scale fit.

    For a model fitted on ``z = log(x)``, imputations
    ``c * exp(z_row . slopes)`` with the returned ``c`` sum exactly to
    ``original_missing_total`` on the original scale.
    """
    if original_missing_total <= 0:
        raise ValueError("the original-scale missing total must be positive")
    Z = _as_matrix(z_p_mis)
    if Z.shape[0] == 0:
        raise ValueError("no missing rows")
    if fit.slopes.size == 0:
        denom = float(Z.shape[0])
    else:
        if Z.shape[1] != fit.slopes.shape[0]:
            raise ValueError(
                f"expected {fit.slopes.shape[0]} predictor column(s), got {Z.shape[1]}"
            )
        denom = float(np.sum(np.exp(Z @ fit.slopes)))
    if not np.isfinite(denom) or denom <= 0:
        raise ValueError(f"degenerate correction denominator {denom!r}")
    return original_missing_total / denom
