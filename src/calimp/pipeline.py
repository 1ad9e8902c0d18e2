"""Sequential imputation satisfying edits and, when requested, column totals.

Variables are imputed one after another.  For the current target, every
record missing it gets an admissible interval from the edit system (with
all other currently-known values filled in), a regression supplies
predictions for the missing cells, and the predictions are made feasible:

* ``upma``  - predictions clipped into their intervals (no total),
* ``bpma``  - predictions calibrated to the column total, then shifted by
  the smallest zero-sum adjustment keeping every cell in its interval,
* ``bpmr``  - calibrated predictions plus interval-respecting random
  residuals that are re-centered to weighted sum zero.

Each step writes only its target's column.  A cell that the edits force
once the earlier targets hold their values gets a point interval at its
own column's turn.  Later rounds re-impute each target with all other
variables as predictors.

A step whose every interval is a point writes the points and skips the
fit, the clip, the adjustment and the draw, which could only land on
them; the checks made before a fit still run, and a benchmarked target
whose points miss its total raises the adjustment's error.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import adjust, fm, regression, residuals
from .edits import DEFAULT_TOL, EditSystem, record_scale, reduced_constants, system_matrices, violation_matrix
from .errors import (
    CalimpError,
    InfeasibleRecordError,
    InfeasibleSystemError,
    RankDeficiencyError,
)

METHODS = ("upma", "bpma", "bpmr")

#: Map column name -> known (weighted) total.
Totals = Mapping[str, float]

#: Relative tolerance to which a weighted column sum must reproduce its total.
TOTAL_RTOL = 1e-8


@dataclass
class DataMatrix:
    """Numeric table with a missingness mask and per-record weights.

    ``mask`` marks the cells without trustworthy observed values; before
    imputation those cells hold NaN, afterwards they hold the imputed
    values while the mask still records which cells were filled in.
    """

    values: np.ndarray
    mask: np.ndarray
    columns: tuple[str, ...]
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.mask = np.asarray(self.mask, dtype=bool)
        self.columns = tuple(self.columns)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-d array")
        if self.values.shape != self.mask.shape:
            raise ValueError("values and mask shapes differ")
        if len(self.columns) != self.values.shape[1]:
            raise ValueError("column names do not match the value columns")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("column names must be unique")
        self.weights = regression.as_weights(self.weights, self.values.shape[0])
        if np.isinf(self.values).any():
            raise ValueError("values must not be infinite")
        if np.any(np.isnan(self.values) & ~self.mask):
            raise ValueError("NaN present in a cell not flagged as missing")

    @property
    def n_records(self) -> int:
        return self.values.shape[0]

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column named {name!r}") from None

    def is_complete(self) -> bool:
        return not np.any(np.isnan(self.values))

    def copy(self) -> "DataMatrix":
        return DataMatrix(self.values.copy(), self.mask.copy(), self.columns, self.weights.copy())


def check_integer(name: str, value, least: int = 0) -> None:
    """Refuse a seed or a count of rounds or steps that is below ``least``
    or not an integer (``2.0`` included), naming the config field."""
    if not isinstance(value, numbers.Integral) or value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound} and an integer, got {value!r}")


@dataclass(frozen=True)
class ImputationConfig:
    method: str
    rounds: int = 2
    predictors: Mapping[str, Sequence[str]] | None = None
    seed: int = 0
    variable_order: Sequence[str] | None = None
    log_scale: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        check_integer("rounds", self.rounds, least=1)
        check_integer("seed", self.seed)
        if self.log_scale and self.method == "bpmr":
            raise ValueError("log-scale imputation supports upma and bpma only")


def variable_order(data: DataMatrix, config: ImputationConfig) -> list[str]:
    """Targets in imputation order: fewest missing first unless given."""
    counts = {name: int(data.mask[:, j].sum()) for j, name in enumerate(data.columns)}
    needed = [name for name in data.columns if counts[name] > 0]
    if config.variable_order is None:
        return sorted(needed, key=lambda name: (counts[name], data.columns.index(name)))
    explicit = list(config.variable_order)
    unknown = [name for name in explicit if name not in counts]
    if unknown:
        raise ValueError(f"variable order names unknown column(s) {unknown}")
    repeated = sorted({name for name in explicit if explicit.count(name) > 1})
    if repeated:
        raise ValueError(f"variable order repeats column(s) {repeated}")
    omitted = [name for name in needed if name not in explicit]
    if omitted:
        raise ValueError(f"variable order omits column(s) with missing values: {omitted}")
    return explicit


def _auto_round1_predictors(data: DataMatrix, target: str, imputed_so_far: list[str]) -> list[str]:
    complete = [
        name
        for j, name in enumerate(data.columns)
        if name != target and not data.mask[:, j].any()
    ]
    return complete + [name for name in imputed_so_far if name != target]


def _fit_with_fallback(y, X, w, predictor_names):
    """Fit, dropping surplus and then dependent predictors; returns the fit,
    the predictor names kept and dropped, and the index of the columns of
    ``X`` fitted on (a slice, or their positions after a dependent
    predictor was dropped).

    A fit needs more observations than predictors plus the intercept, so
    the trailing predictors beyond ``n - 2`` are dropped first, last first.
    A rank-deficient fit stops before ``lstsq`` and names every dependent
    predictor at once; those are dropped and the fit is made once more, and
    any error of that second fit propagates."""
    p_max = max(len(y) - 2, 0)
    names, dropped = list(predictor_names[:p_max]), list(predictor_names[p_max:])[::-1]
    try:
        return regression.fit_ols(y, X[:, :p_max], weights=w, names=names), names, dropped, slice(p_max)
    except RankDeficiencyError as err:
        keep = [j for j, name in enumerate(names) if name not in err.columns]
        names = [names[j] for j in keep]
        fit = regression.fit_ols(y, X[:, keep], weights=w, names=names)
        return fit, names, dropped + list(err.columns), keep


def _fit_diagnostics(fit: regression.RegressionFit, **extra) -> dict:
    return {
        "intercept": fit.intercept,
        "slopes": [float(s) for s in fit.slopes],
        "residual_variance": fit.residual_variance,
        "n_obs": fit.n_obs,
        **extra,
    }


def _check_log_scale(target, y, X_obs, X_mis, missing_total):
    """Refuse log-scale data that is not strictly positive, and a
    remainder of the column total (``None`` unless benchmarked) that is not
    positive, which positive imputations cannot reach."""
    if np.any(y <= 0) or np.any(X_obs <= 0) or np.any(X_mis <= 0):
        raise ValueError("log-scale imputation requires strictly positive data")
    if missing_total is not None and missing_total <= 0:
        raise InfeasibleSystemError(
            f"variable {target!r}: the missing cells must sum to {missing_total!r}, "
            "but log-scale imputations are positive"
        )


def _check_point_total(target, rnd, method, points, w, missing_total):
    """Raise, as the step's adjustment would, when forced cells miss the
    remainder of their column total by more than ``DEFAULT_TOL`` of its
    scale: bpma's adjustment cannot sum to 0 within ``[gap, gap]``, and
    bpmr's re-centering of draws on the points cannot sum to ``-gap``
    within ``[0, 0]``."""
    gap = float(np.sum(w * points)) - missing_total
    if abs(gap) > DEFAULT_TOL * max(1.0, abs(missing_total), float(np.sum(np.abs(w * points)))):
        need, reach = (0.0, gap) if method == "bpma" else (-gap, 0.0)
        err = adjust.out_of_reach(need, reach, reach)
        raise InfeasibleSystemError(f"variable {target!r}, round {rnd}: {err}") from err


def _predict(y, X_obs, X_mis, w_obs, w_mis, pred_names, missing_total, log_scale):
    """Predictions for the missing rows of a target, with the ``fit``
    diagnostics and the predictor names used and dropped.

    ``missing_total`` (``None`` unless benchmarked) calibrates the
    predictions so their weighted sum is that remainder of the column
    total: through the intercept of the missing rows on the linear scale,
    through a multiplier replacing ``exp(intercept)`` on the log scale."""
    if log_scale:
        y, X_obs, X_mis = np.log(y), np.log(X_obs), np.log(X_mis)
    fit, used_names, dropped, cols = _fit_with_fallback(y, X_obs, w_obs, pred_names)
    # The intercept of the missing rows is solved on them as the fit took
    # its columns (a row-major view unless a predictor was dropped for
    # rank), the predictions on a column-major copy: the two products
    # round differently, and the imputed values depend on both to the bit.
    X_fitted = X_mis[:, cols]
    X_mis = X_mis[:, [pred_names.index(n) for n in used_names]]
    if missing_total is None and log_scale:
        predictions = np.exp(fit.predict(X_mis))
        fit_diag = _fit_diagnostics(fit, scale="log")
    elif missing_total is None:
        predictions = fit.predict(X_mis)
        fit_diag = _fit_diagnostics(fit)
    elif log_scale:
        c = regression.log_benchmark_correction(fit, X_mis, missing_total, w_mis)
        predictions = c * np.exp(X_mis @ fit.slopes)
        fit_diag = _fit_diagnostics(fit, scale="log", log_correction=c)
    else:
        calibrated = regression.fit_benchmarked(fit, X_fitted, missing_total, w_mis)
        predictions = calibrated.predict(X_mis)
        fit_diag = _fit_diagnostics(
            fit, missing_intercept=calibrated.intercept, missing_sum_target=missing_total
        )
    return predictions, fit_diag, used_names, dropped


@dataclass
class _TargetIntervals:
    """Admissible intervals of one target for the records missing it, and
    the number of unknown-pattern groups they were derived in."""

    lower: np.ndarray
    upper: np.ndarray
    patterns: int

    def stats(self) -> dict:
        bounded = int(np.count_nonzero(np.isfinite(self.lower) & np.isfinite(self.upper)))
        return {
            "count": int(self.lower.size),
            "degenerate": int(np.count_nonzero(self.lower == self.upper)),
            "bounded": bounded,
            "unbounded": int(self.lower.size) - bounded,
            "patterns": self.patterns,
        }


def _missing_patterns(missing: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(missing, axis=0, return_inverse=True)`` for a boolean
    matrix, with the inverse flat.

    Each row is packed into one fixed-width bytes scalar; bytes order as
    the rows of bools do, so sorting the scalars gives the same patterns in
    the same order, without the slow sort of whole rows."""
    packed = np.packbits(missing, axis=1)
    if packed.shape[1] == 0:  # no columns: every row has the empty pattern
        packed = np.zeros((missing.shape[0], 1), np.uint8)
    _, first, inverse = np.unique(
        packed.view(f"S{packed.shape[1]}").ravel(), return_index=True, return_inverse=True
    )
    return missing[first], inverse


class _PatternCompiler:
    """Interval derivations compiled once per (unknown pattern, target).

    Records missing the target are grouped by which edit variables they
    still lack; each group's bounds and feasibility checks are then array
    expressions over its records, on each record's margin scale (see
    :class:`fm.CompiledInterval`).
    An edit a record knows fully is not checked here: :func:`check_inputs`
    has checked the observed values, and each imputed value lies in an
    interval that keeps the edits.  The cache lives for one :func:`impute`
    call.
    """

    def __init__(self, edits: EditSystem, columns: Sequence[str]):
        self.edits = edits
        self.cols = [columns.index(v) for v in edits.variables]
        self.A, self.b, self.is_eq = system_matrices(edits, edits.variables)
        self.cache: dict[tuple[bytes, str], fm.CompiledInterval] = {}

    def intervals(self, current: np.ndarray, rows: np.ndarray, target: str) -> _TargetIntervals:
        X = current[np.ix_(rows, self.cols)]
        patterns, inverse = _missing_patterns(np.isnan(X))
        members = np.split(np.argsort(inverse, kind="stable"), np.cumsum(np.bincount(inverse))[:-1])
        lower = np.empty(rows.size)
        upper = np.empty(rows.size)
        first_bad = None
        for pattern, pos in zip(patterns, members):
            key = (pattern.tobytes(), target)
            compiled = self.cache.get(key)
            if compiled is None:
                unknown = [v for v, missing in zip(self.edits.variables, pattern) if missing]
                compiled = fm.compile_interval(self.A, self.is_eq, self.edits.variables, unknown, target)
                self.cache[key] = compiled
            Xp = X[pos]
            D, scale = reduced_constants(self.A, self.b, Xp), record_scale(Xp[:, self.A.any(axis=0)])
            lower[pos], upper[pos], bad = compiled.evaluate(D, scale)
            if bad.any():
                j = int(np.argmax(bad))
                if first_bad is None or pos[j] < first_bad[0]:
                    first_bad = (pos[j], compiled, D[j], scale[j])
        if first_bad is not None:
            p, compiled, d, s = first_bad
            raise compiled.infeasibility(self.edits.edits, d, float(s), record=int(rows[p]))
        return _TargetIntervals(lower, upper, len(patterns))


def check_inputs(
    data: DataMatrix,
    edits: EditSystem,
    totals: Totals | None,
    predictors: Mapping[str, Sequence[str]] | None,
) -> None:
    """The input checks of :func:`impute` and ``mcmc.mcmc_refine``: edit
    variables, totals (which may name columns the data lacks) and the
    predictor map raise ``ValueError``; the first record whose values
    (observed, or for a chain also imputed) break an edit raises
    :class:`InfeasibleRecordError`."""
    unknown = [v for v in edits.variables if v not in data.columns]
    if unknown:
        raise ValueError(f"edits reference column(s) not in the data: {unknown}")
    bad = [name for name, total in (totals or {}).items() if not math.isfinite(float(total))]
    if bad:
        raise ValueError(f"non-finite total(s) for column(s) {bad}")
    for target, names in (predictors or {}).items():
        if target not in data.columns:
            raise ValueError(f"predictors given for unknown column {target!r}")
        names = list(names)
        bad = [p for p in names if p not in data.columns]
        if bad:
            raise ValueError(f"unknown predictor column(s) {bad} for target {target!r}")
        if target in names:
            raise ValueError(f"target {target!r} cannot be its own predictor")
        repeated = sorted({p for p in names if names.count(p) > 1})
        if repeated:
            raise ValueError(f"predictor(s) {repeated} listed twice for target {target!r}")
    bad = violation_matrix(edits, data.values, data.columns)
    if bad.any():
        i, k = np.argwhere(bad)[0].tolist()
        edit = edits.edits[k]
        resid = edit.residual(dict(zip(data.columns, data.values[i])))
        message = f"record {i} violates edit {k} (residual {resid:.6g})"
        raise InfeasibleRecordError(message, record=i, edit_index=k, witness=edit)


def impute(
    data: DataMatrix,
    edits: EditSystem,
    totals: Totals | None = None,
    config: ImputationConfig | None = None,
) -> tuple[DataMatrix, list[dict]]:
    """Impute every missing cell; returns the completed data and diagnostics.

    The observed values must already satisfy the edits, else
    :class:`InfeasibleRecordError` names the first violating record.  The
    result satisfies every edit (relative tolerance ``edits.DEFAULT_TOL``,
    see :func:`calimp.edits.violation_matrix`); the benchmarked methods
    additionally reproduce the totals of the imputed columns to
    ``TOTAL_RTOL``.  ``upma`` and ``bpma`` are deterministic, ``bpmr`` is
    deterministic given the seed.
    """
    if config is None:
        config = ImputationConfig("upma")
    check_inputs(data, edits, totals, config.predictors)
    benchmarked = config.method in ("bpma", "bpmr")
    missing_cols = [name for j, name in enumerate(data.columns) if data.mask[:, j].any()]
    if benchmarked:
        if totals is None:
            raise ValueError(f"method {config.method!r} requires column totals")
        without = [name for name in missing_cols if name not in totals]
        if without:
            raise ValueError(f"totals missing for column(s) with missing values: {without}")

    order = variable_order(data, config)
    diagnostics: list[dict] = []
    if not order:
        return data.copy(), diagnostics

    current = data.values.copy()
    col_idx = {name: j for j, name in enumerate(data.columns)}
    compiler = _PatternCompiler(edits, data.columns)
    imputed_so_far: list[str] = []

    for rnd in range(1, config.rounds + 1):
        for target in order:
            t = col_idx[target]
            rows = np.flatnonzero(data.mask[:, t])
            if rows.size == 0:
                continue
            current[rows, t] = np.nan
            derived = compiler.intervals(current, rows, target)

            if rnd == 1 and config.predictors is not None and target in config.predictors:
                pred_names = list(config.predictors[target])
            elif rnd == 1:
                pred_names = _auto_round1_predictors(data, target, imputed_so_far)
            else:
                pred_names = [name for name in data.columns if name != target]

            obs = np.flatnonzero(~data.mask[:, t])
            pred_idx = [col_idx[p] for p in pred_names]
            fit_rows = current[np.ix_(obs, pred_idx)]
            mis_rows = current[np.ix_(rows, pred_idx)]
            if np.isnan(fit_rows).any() or np.isnan(mis_rows).any():
                incomplete = sorted(
                    {pred_names[j] for j in np.unique(np.argwhere(np.isnan(mis_rows))[:, 1])}
                    | {pred_names[j] for j in np.unique(np.argwhere(np.isnan(fit_rows))[:, 1])}
                )
                raise ValueError(
                    f"predictor(s) {incomplete} for target {target!r} are not complete yet"
                )
            w_mis = data.weights[rows]
            y, w_obs = current[obs, t], data.weights[obs]
            missing_total = float(totals[target]) - float(np.sum(w_obs * y)) if benchmarked else None
            if config.log_scale:
                _check_log_scale(target, y, fit_rows, mis_rows, missing_total)
            lower, upper = derived.lower, derived.upper
            residual_diag = None
            if np.array_equal(lower, upper):
                # Every cell is forced, and a fit's predictions would be
                # clipped or adjusted onto these points.  The clip gives
                # ``upper`` bit for bit; an adjustment gives p + (upper - p),
                # which turns a zero point into +0.0.
                if benchmarked:
                    _check_point_total(target, rnd, config.method, upper, w_mis, missing_total)
                final = upper if config.method == "upma" else upper + 0.0
                used_names, dropped, fit_diag = [], [], None
                adjustment_diag = {"skipped": "all points"}
            else:
                predictions, fit_diag, used_names, dropped = _predict(
                    y, fit_rows, mis_rows, w_obs, w_mis, pred_names, missing_total, config.log_scale
                )
                if config.method == "upma":
                    final = np.clip(predictions, lower, upper)
                    adjustment_diag = {"clipped": int(np.sum(final != predictions))}
                else:
                    # bpma is bpmr with zero residuals: the re-centering of a zero
                    # vector is the smallest zero-sum adjustment of the predictions.
                    sigma = math.sqrt(fit_diag["residual_variance"]) if config.method == "bpmr" else 0.0
                    uniforms = residuals.cell_uniforms(config.seed * 1_000_003 + rnd, t, rows) if sigma else None
                    try:
                        shift, stats = residuals.benchmarked_residuals(
                            sigma, lower - predictions, upper - predictions, w_mis, uniforms,
                            feasibility_scale=max(1.0, float(np.sum(np.abs(w_mis * predictions)))),
                        )
                    except InfeasibleSystemError as err:
                        raise InfeasibleSystemError(
                            f"variable {target!r}, round {rnd}: {err}", witness=getattr(err, "witness", None)
                        ) from err
                    if config.method == "bpmr":
                        residual_diag, solver_diag = stats, {}
                    else:
                        solver_diag = {key: stats[key] for key in ("lambda", "at_lower", "at_upper")}
                    final = predictions + shift
                    adjustment_diag = {
                        "max_abs": float(np.max(np.abs(shift))) if shift.size else 0.0,
                        "weighted_sum": float(np.sum(w_mis * shift)),
                        **solver_diag,
                    }

            current[rows, t] = final

            if target not in imputed_so_far:
                imputed_so_far.append(target)
            diagnostics.append(
                {
                    "round": rnd,
                    "variable": target,
                    "n_missing": int(rows.size),
                    "predictors": used_names,
                    "dropped_predictors": dropped,
                    "fit": fit_diag,
                    "intervals": derived.stats(),
                    "adjustment": adjustment_diag,
                    "residuals": residual_diag,
                }
            )

    if np.isnan(current).any():
        i, j = np.argwhere(np.isnan(current))[0]
        raise CalimpError(
            f"internal error: cell ({int(i)}, {data.columns[int(j)]}) left unimputed"
        )
    observed = ~data.mask
    if not np.array_equal(current[observed], data.values[observed]):
        raise CalimpError("internal error: an observed cell was modified")
    validate(current, data, edits, {name: totals[name] for name in missing_cols} if benchmarked else None)
    return DataMatrix(current, data.mask.copy(), data.columns, data.weights.copy()), diagnostics


def validate(values: np.ndarray, data: DataMatrix, edits: EditSystem, totals: Totals | None) -> None:
    """Raise :class:`CalimpError` unless every record of ``values`` (laid
    out like ``data``) satisfies the edits and every total that names a
    column of ``data`` is reproduced to ``TOTAL_RTOL``."""
    bad = violation_matrix(edits, values, data.columns)
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise CalimpError(f"record {int(i)} violates edit {int(k)}")
    for j, name in enumerate(data.columns):
        if totals and name in totals:
            got = float(data.weights @ values[:, j])
            want = float(totals[name])
            if abs(got - want) > TOTAL_RTOL * max(1.0, abs(want)):
                raise CalimpError(f"column {name!r} sums to {got!r}, total is {want!r}")
