"""Regression fits used for predictive mean imputation.

``fit_ols`` is a plain (optionally weighted) least-squares fit on the rows
where the target is observed.  Benchmarking is one step applied to such a
fit: ``fit_benchmarked`` returns it with the intercept of the missing rows,
chosen in closed form so the weighted sum of their predictions equals the
known remainder of the column total.  ``log_benchmark_correction`` is the
multiplicative analogue for models fitted on the log scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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


def as_weights(weights, n: int) -> np.ndarray:
    """The weights of ``n`` records as a float array: ones for ``None``,
    otherwise shape ``(n,)`` with every weight finite and strictly positive."""
    if weights is None:
        return np.ones(n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights must have shape ({n},), got {w.shape}")
    if not (np.isfinite(w).all() and (w > 0).all()):
        raise ValueError("weights must be finite and strictly positive")
    return w


def _missing_rows(fit: RegressionFit, X_mis_rows, weights_mis) -> tuple[np.ndarray, np.ndarray]:
    """The missing rows a calibration step spreads a total over, as a
    matrix with ``fit``'s predictor columns, and their weights."""
    X_mis = _as_matrix(X_mis_rows)
    if X_mis.shape[0] == 0:
        raise ValueError("no missing rows: nothing to calibrate")
    if X_mis.shape[1] != fit.slopes.shape[0]:
        raise ValueError(
            f"missing rows have {X_mis.shape[1]} predictor column(s), fit has {fit.slopes.shape[0]}"
        )
    return X_mis, as_weights(weights_mis, X_mis.shape[0])


def _dependent_columns(Z: np.ndarray, names: Sequence[str]) -> list[str]:
    """Every predictor that adds nothing to the column space of the columns
    kept before it, in order; each column is ranked once.  Column 0 of
    ``Z`` is the intercept.  A design ``lstsq`` calls deficient although no
    column is dependent here blames the last predictor."""
    kept = [0]
    rank = np.linalg.matrix_rank(Z[:, :1])
    dependent = []
    for j in range(1, Z.shape[1]):
        longer = np.linalg.matrix_rank(Z[:, kept + [j]])
        if longer <= rank:
            dependent.append(names[j - 1])
        else:
            kept.append(j)
            rank = longer
    return dependent or [names[-1]]


def fit_ols(
    y_obs,
    X_obs,
    weights=None,
    names: Sequence[str] | None = None,
) -> RegressionFit:
    """Weighted least squares of ``y_obs`` on an intercept and ``X_obs``.

    ``weights`` default to ones (plain OLS).  The residual variance uses
    the usual ``n - p - 1`` denominator.  Rank-deficient designs raise
    :class:`RankDeficiencyError` naming every dependent column.
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
    w = as_weights(weights, n)
    names = list(names) if names is not None else [f"x{j}" for j in range(p)]

    sw = np.sqrt(w)
    Z = np.concatenate([np.ones((n, 1)), X], axis=1) * sw[:, None]
    t = y * sw
    coef, _, rank, _ = np.linalg.lstsq(Z, t, rcond=None)
    if rank < p + 1:
        columns = _dependent_columns(Z, names)
        raise RankDeficiencyError(
            f"design matrix is rank deficient; column(s) {columns} are collinear "
            "with the columns before them",
            columns=columns,
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
    fit: RegressionFit,
    X_mis_rows,
    missing_total: float,
    weights_mis=None,
) -> RegressionFit:
    """``fit`` with the intercept of the missing rows ``X_mis_rows``.

    The intercept is the unique constant making the weighted sum of the
    missing-row predictions equal ``missing_total``, the known column
    total minus the weighted observed sum.  The slopes, residual variance
    and ``n_obs`` are those of ``fit``.
    """
    X_mis, w_mis = _missing_rows(fit, X_mis_rows, weights_mis)
    m = float(np.sum(w_mis))
    slope_part = float(np.sum(w_mis * (X_mis @ fit.slopes)))
    calibrated = replace(fit, intercept=(missing_total - slope_part) / m)
    check = float(np.sum(w_mis * calibrated.predict(X_mis)))
    if abs(check - missing_total) > CALIBRATION_RTOL * max(1.0, abs(missing_total)):
        raise ArithmeticError(
            f"calibration identity failed: predictions sum to {check!r}, "
            f"target is {missing_total!r}"
        )
    return calibrated


def log_benchmark_correction(
    fit: RegressionFit,
    X_mis_rows,
    missing_total: float,
    weights_mis=None,
) -> float:
    """Multiplier replacing ``exp(intercept)`` after a log-scale fit.

    For a model fitted on ``z = log(x)``, imputations
    ``c * exp(z_row . slopes)`` of the missing rows ``X_mis_rows`` (on the
    log scale) with the returned ``c`` have weighted sum exactly
    ``missing_total`` on the original scale.
    """
    if missing_total <= 0:
        raise ValueError("the original-scale missing total must be positive")
    X_mis, w_mis = _missing_rows(fit, X_mis_rows, weights_mis)
    denom = float(np.sum(w_mis * np.exp(X_mis @ fit.slopes)))
    if not np.isfinite(denom) or denom <= 0:
        raise ValueError(f"degenerate correction denominator {denom!r}")
    return missing_total / denom
