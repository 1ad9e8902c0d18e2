"""Regression fits used for predictive mean imputation.

``fit_ols`` is a plain (optionally weighted) least-squares fit on the rows
where the target is observed, ranked by the rank rule of every fit, the
chain's too (:func:`independent_predictors`), and solved by one path: the
design with its columns scaled to unit norm.  Benchmarking is one step
applied to such a fit: ``fit_benchmarked`` returns it with the intercept
of the missing rows, chosen in closed form so the weighted sum of their
predictions equals the known remainder of the column total.
``log_benchmark_correction`` is the multiplicative analogue for models
fitted on the log scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError, RankDeficiencyError

#: Relative rounding floor of a Gram-form pivot.  A pivot is a Schur
#: complement of the Gram matrix, a difference of sums of n squares, so it
#: carries an absolute error of many ulps of its diagonal entry (yᵀy for
#: the target): on the study's exact x2 = P - x1 model the rss comes out
#: anywhere within ±700 ulps of yᵀy, where lstsq finds 1e-25 of it.  A
#: pivot at or below ``GRAM_RTOL`` times its diagonal is therefore zero: a
#: design column in the span of its predecessors, or a target the
#: predictors fit exactly (rss taken as 0).
GRAM_RTOL = 2**14 * np.finfo(float).eps


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


def _factor_columns(
    gram: Sequence[Sequence[float]], columns: Sequence[int]
) -> tuple[list[int], list[list[float]], list[float], float]:
    """The rank rule, in one pass: the lower Cholesky factor of ``gram``
    (rows of floats, lower triangle read) over ``columns`` in order, less
    each column whose pivot is at or below :data:`GRAM_RTOL` of its
    diagonal.  Returns the kept columns, their rows, and the last column's
    row (without its diagonal) and pivot (0 when skipped).  Plain Python:
    on a block this small numpy's call overhead exceeds the arithmetic."""
    kept: list[int] = []
    L: list[list[float]] = []
    for c in columns:
        g, row = gram[c], []
        for k, lk in zip(kept, L):
            acc = g[k]
            for q, v in enumerate(row):
                acc -= v * lk[q]
            row.append(acc / lk[len(row)])
        pivot = g[c]
        for v in row:
            pivot -= v * v
        if pivot > GRAM_RTOL * g[c]:
            kept.append(c)
            L.append(row + [math.sqrt(pivot)])
        else:
            pivot = 0.0
    return kept, L, row, pivot


def gram_factor(gram: Sequence[Sequence[float]], target: str) -> tuple[list[list[float]], list[float], float]:
    """Cholesky factor of an augmented Gram matrix [[ZᵀZ, Zᵀy], [yᵀZ, yᵀy]],
    given as rows of floats: the lower factor L of ZᵀZ = LLᵀ (as rows),
    l = L⁻¹Zᵀy and rss = yᵀy - lᵀl, so the least-squares coefficients are
    L⁻ᵀl.  A design column the rank rule skips raises
    :class:`RankDeficiencyError`; an rss it skips is an exact fit, 0."""
    m = len(gram) - 1
    kept, L, l, rss = _factor_columns(gram, range(m + 1))
    if len(kept) < m + (rss > 0):  # the target is kept exactly when rss > 0
        raise RankDeficiencyError(f"posterior fit for {target!r} is rank deficient")
    return L[:m], l, rss


def independent_predictors(gram: Sequence[Sequence[float]], candidates: Sequence[int]) -> list[int]:
    """The ``candidates`` (column positions) the rank rule keeps after the
    intercept, in order, on the augmented Gram matrix over ``[1, every
    column]`` as rows.  A kept set's factor repeats their pivots.

    The rule is relative to each column's own diagonal, with no absolute
    floor, so a predictor near 1e10 and one in 1e-3 units are ranked
    alike, and a column that is only rounding residue beside larger ones
    is kept: it is no combination of the others on its own scale."""
    kept = _factor_columns(gram, [0] + [c + 1 for c in candidates])[0]
    return [c - 1 for c in kept if c]


def fit_ols(
    y_obs,
    X_obs,
    weights=None,
    names: Sequence[str] | None = None,
) -> RegressionFit:
    """Weighted least squares of ``y_obs`` on an intercept and ``X_obs``.

    ``weights`` default to ones (plain OLS).  The residual variance uses
    the usual ``n - p - 1`` denominator.  The design is ranked before it is
    solved: a rank-deficient one raises :class:`RankDeficiencyError` naming
    every dependent column.  A full-rank one is solved at unit column
    norms, so predictors in units far apart keep their accuracy and leave
    ``lstsq``'s cutoff nothing to cut.  A response or predictor that is
    not finite raises ``ValueError``.
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
    if len(names) != p:
        raise ValueError(f"got {len(names)} predictor name(s) for {p} predictor column(s)")
    if not np.isfinite(y).all():
        raise ValueError("the response is not finite: a value is NaN or infinite")

    sw = np.sqrt(w)
    Z = np.concatenate([np.ones((n, 1)), X], axis=1) * sw[:, None]
    t = y * sw
    gram = Z.T @ Z
    if not np.isfinite(gram).all():
        raise ValueError("the design's Gram matrix is not finite: a predictor is NaN, infinite or too large")
    kept = independent_predictors(gram.tolist(), range(p))
    if len(kept) < p:
        columns = [name for j, name in enumerate(names) if j not in kept]
        raise RankDeficiencyError(
            f"design matrix is rank deficient; column(s) {columns} are collinear with the columns before them",
            columns=columns,
        )
    norms = np.sqrt(gram.diagonal())
    coef = np.linalg.lstsq(Z / norms, t, rcond=None)[0] / norms
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
    and ``n_obs`` are those of ``fit``.  The sum holds up to rounding,
    which is relative to the summed terms, not to ``missing_total``; the
    column total that it reproduces is checked once, by
    :func:`calimp.pipeline.validate` at the end of ``impute``.
    """
    X_mis, w_mis = _missing_rows(fit, X_mis_rows, weights_mis)
    m = float(np.sum(w_mis))
    slope_part = float(np.sum(w_mis * (X_mis @ fit.slopes)))
    return replace(fit, intercept=(missing_total - slope_part) / m)


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
