"""Evaluation measures comparing imputed values with the originals."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .regression import as_weights


@dataclass(frozen=True)
class MetricReport:
    """Per-variable metrics plus correlations for requested column pairs."""

    per_variable: dict[str, dict[str, float]]
    correlations: dict[tuple[str, str], float] = field(default_factory=dict)

    def rows(self) -> list[tuple[str, str, float]]:
        """Flat (variable, metric, value) rows for serialization."""
        out = []
        for var in self.per_variable:
            for metric, value in self.per_variable[var].items():
                out.append((var, metric, value))
        for (a, b), value in self.correlations.items():
            out.append((f"{a},{b}", "correlation", value))
        return out


def d_l1(original, imputed, weights=None) -> float:
    """Weighted mean absolute deviation over the imputed cells."""
    x = np.asarray(original, dtype=float).ravel()
    y = np.asarray(imputed, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError("original and imputed vectors must have equal length")
    if x.size == 0:
        raise ValueError("no imputed cells to compare")
    w = as_weights(weights, x.size)
    return float(np.sum(w * np.abs(y - x)) / np.sum(w))


def ks_statistic(original, imputed) -> float:
    """Largest gap between the two empirical CDFs at the pooled values."""
    x = np.sort(np.asarray(original, dtype=float).ravel())
    y = np.sort(np.asarray(imputed, dtype=float).ravel())
    if x.size == 0 or y.size == 0:
        raise ValueError("both samples must be nonempty")
    pooled = np.concatenate([x, y])
    fx = np.searchsorted(x, pooled, side="right") / x.size
    fy = np.searchsorted(y, pooled, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


def std_pct_diff(original_column, imputed_column) -> float:
    """Percent change of the (population) standard deviation after imputation."""
    x = np.asarray(original_column, dtype=float).ravel()
    y = np.asarray(imputed_column, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError("columns must have equal length")
    std_orig = float(np.std(x))
    # A constant column's std may round a few ulps above 0.
    if std_orig == 0.0 or np.ptp(x) == 0.0:
        raise ValueError("original column has zero standard deviation")
    std_imp = float(np.std(y))
    return 100.0 * (std_imp - std_orig) / std_orig


def weighted_pearson(x, y, weights=None) -> float:
    """Weighted Pearson correlation of two complete columns."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError("columns must have equal length")
    w = as_weights(weights, x.size)
    w = w / np.sum(w)
    mx = float(np.sum(w * x))
    my = float(np.sum(w * y))
    cov = float(np.sum(w * (x - mx) * (y - my)))
    vx = float(np.sum(w * (x - mx) ** 2))
    vy = float(np.sum(w * (y - my) ** 2))
    # A constant column's variance may round a few ulps above 0.
    if vx == 0.0 or vy == 0.0 or np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise ValueError("a column has zero variance")
    return cov / np.sqrt(vx * vy)
