"""Independent oracles shared by the module tests and the acceptance suite.

These deliberately avoid the library's own elimination/solver code paths:
feasibility is decided by complete lattice enumeration, regression
calibration by solving the augmented normal equations directly, the
zero-sum adjustment by active-set enumeration, bpmr residuals cell by
cell from scalar ``SeedSequence`` calls and one-cell draws, the refinement
chain's pair update by the per-record derivation and term by term in
plain Python (:class:`PairStep`), its sweeps by one-pair steps
(:func:`step_chain`), the dataset and mask files one cell at a time
(:func:`cell_read_dataset`, :func:`cell_read_mask`), and random
imputation instances are built truth-first so feasibility is a
construction guarantee rather than an assumption.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import math
from functools import lru_cache
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from calimp import fm, mcmc
from calimp.adjust import (
    AdjustmentProblem,
    _check_feasible,
    _shifted_target,
    adjustment_stats,
    zero_sum_interval_adjust,
)
from calimp.edits import (
    DEFAULT_TOL, Edit, EditKind, EditSystem, ReducedSystem, record_scale, reduce_system, system_matrices,
    violation_matrix,
)
from calimp.errors import DataFormatError, InfeasibleAdjustmentError, InfeasibleSystemError, RankDeficiencyError
from calimp.mcmc import pair_constraint_system
from calimp.io import ENCODING, MISSING_MARKERS, WEIGHT_COLUMN
from calimp.pipeline import DataMatrix
from calimp.residuals import truncated_normal

ORACLE_MAX_SIZE = 12


class GridOracle:
    """Complete lattice-enumeration feasibility check for one system.

    All variables live in a box covered by the lattice.  For a candidate
    target value the oracle reports:

    * ``relaxed(v)``  - some lattice completion satisfies every inequality
      up to the lattice-resolution margin.  A true feasible point implies
      a relaxed lattice witness, so ``v in interval  =>  relaxed(v)``.
    * ``strict(v)``   - some lattice completion satisfies every inequality
      with margin to spare, which certifies true feasibility, so
      ``strict(v)  =>  v in interval``.
    """

    def __init__(self, edits: list[Edit], names: list[str], target: str, step: float = 1.0, box: float = 7.0):
        self.target = target
        others = [n for n in names if n != target]
        axis = np.arange(-box, box + 1e-9, step)
        if others:
            mesh = np.meshgrid(*[axis] * len(others), indexing="ij")
            lattice = np.column_stack([m.ravel() for m in mesh])
        else:
            lattice = np.zeros((1, 0))
        A = np.zeros((len(edits), len(others)))
        at = np.zeros(len(edits))
        b = np.zeros(len(edits))
        margin = np.zeros(len(edits))
        for k, edit in enumerate(edits):
            assert edit.kind is EditKind.INEQUALITY
            for v, c in edit.coeffs.items():
                if v == target:
                    at[k] = c
                else:
                    A[k, others.index(v)] = c
            b[k] = edit.constant
            margin[k] = 0.5 * step * sum(abs(c) for v, c in edit.coeffs.items() if v != target)
        self.base = lattice @ A.T + b  # (points, edits)
        self.at = at
        self.margin = margin

    def relaxed(self, value: float, slack: float = 0.0) -> bool:
        """``slack`` widens every margin, for intervals computed in an
        order whose rounding may put an endpoint an ulp outside."""
        resid = self.base + value * self.at
        return bool(np.any(np.all(resid >= -self.margin - slack, axis=1)))

    def strict(self, value: float) -> bool:
        resid = self.base + value * self.at
        return bool(np.any(np.all(resid >= self.margin, axis=1)))


def random_inequality_system(rng: np.random.Generator, max_vars: int = 5, max_extra: int = 8):
    """Small random inequality system with integer data, boxed to [-6, 6]."""
    n_vars = int(rng.integers(2, max_vars + 1))
    names = [f"v{j}" for j in range(n_vars)]
    edits: list[Edit] = []
    for name in names:
        edits.append(Edit({name: 1.0}, 6.0, EditKind.INEQUALITY))
        edits.append(Edit({name: -1.0}, 6.0, EditKind.INEQUALITY))
    n_extra = int(rng.integers(1, max_extra + 1))
    for _ in range(n_extra):
        k = int(rng.integers(1, min(3, n_vars) + 1))
        chosen = rng.choice(n_vars, size=k, replace=False)
        coeffs = {}
        for j in chosen:
            c = int(rng.integers(-3, 4))
            if c != 0:
                coeffs[names[j]] = float(c)
        if not coeffs:
            continue
        edits.append(Edit(coeffs, float(rng.integers(-6, 7)), EditKind.INEQUALITY))
    return names, edits


def augmented_design_fit(y_obs, X_obs, X_mis, total_all):
    """Calibrated regression solved the long way round, as one least-squares
    problem on the augmented design (observed rows plus the summed
    missing-rows equation), for the unweighted case."""
    y_obs = np.asarray(y_obs, dtype=float)
    X_obs = np.asarray(X_obs, dtype=float)
    X_mis = np.asarray(X_mis, dtype=float)
    n, p = X_obs.shape
    m = X_mis.shape[0]
    target_mis = total_all - y_obs.sum()
    Z = np.zeros((n + 1, p + 2))
    Z[:n, 0] = 1.0
    Z[:n, 2:] = X_obs
    Z[n, 1] = m
    Z[n, 2:] = X_mis.sum(axis=0)
    y = np.concatenate([y_obs, [target_mis]])
    coef, _, _, _ = np.linalg.lstsq(Z, y, rcond=None)
    return coef  # [beta0, beta1, slopes...]


def random_imputation_instance(rng: np.random.Generator, max_records: int = 500, max_cols: int = 6):
    """Random feasible instance: data first, edits derived from the data.

    One balance edit ties two item columns to an always-observed sum
    column; random-coefficient inequalities are drawn within that triple
    (the shape of typical accounting edits), per-column bound edits get
    slack around the realized range, and everything is nonnegative.
    Missingness hits the two item columns and any column outside the
    triple.  Keeping the sum column observed makes the sequential
    benchmarked scheme provably feasible: cells pinned through the balance
    are pinned to their true values, so every column's calibration target
    stays reachable.  The true table witnesses edits and totals.
    """
    r = int(rng.integers(30, max_records + 1))
    n = int(rng.integers(3, max_cols + 1))
    names = [f"c{j}" for j in range(n)]
    base = rng.lognormal(mean=2.0, sigma=0.5, size=(r, n)) * rng.uniform(1.0, 5.0, size=n)
    ia, ib, ic = (int(j) for j in rng.choice(n, size=3, replace=False))
    base[:, ia] = base[:, ia] + float(rng.uniform(0.0, 2.0)) * base[:, ib]
    base[:, ic] = base[:, ia] + base[:, ib]

    edits: list[Edit] = []
    edits.append(Edit({names[ia]: 1.0, names[ib]: 1.0, names[ic]: -1.0}, 0.0, EditKind.EQUALITY))
    for j in range(n):
        edits.append(Edit({names[j]: 1.0}, 0.0, EditKind.INEQUALITY))
    # Random order/ratio edits inside the balance triple, slack-buffered.
    for _ in range(int(rng.integers(1, 4))):
        j, k = (int(v) for v in rng.choice([ia, ib, ic], size=2, replace=False))
        coeffs = {names[j]: float(rng.choice([1.0, 2.0, 3.0])), names[k]: float(rng.choice([-1.0, -0.5, -2.0]))}
        vals = base[:, j] * coeffs[names[j]] + base[:, k] * coeffs[names[k]]
        slack = 0.25 * (vals.max() - vals.min()) + 1.0
        edits.append(Edit(coeffs, float(-vals.min() + slack), EditKind.INEQUALITY))
    # Constant range edits on a few columns (state-independent intervals).
    for j in range(n):
        if rng.random() < 0.4:
            top = float(base[:, j].max())
            edits.append(Edit({names[j]: -1.0}, top * float(rng.uniform(1.1, 2.0)), EditKind.INEQUALITY))

    mask = np.zeros((r, n), dtype=bool)
    maskable = [ia, ib] + [j for j in range(n) if j not in (ia, ib, ic)]
    for j in maskable:
        rate = float(rng.uniform(0.05, 0.3))
        rows = rng.choice(r, size=max(1, int(rate * r)), replace=False)
        mask[rows, j] = True
    # Keep at least a handful of complete response rows per column.
    for j in range(n):
        obs = np.flatnonzero(~mask[:, j])
        if obs.size < 8:
            mask[: max(0, 8 - obs.size), j] = False

    weights = rng.uniform(0.5, 2.0, size=r) if rng.integers(2) else np.ones(r)
    totals = {names[j]: float(np.sum(weights * base[:, j])) for j in range(n)}
    values = base.copy()
    values[mask] = np.nan
    system = EditSystem(tuple(edits), tuple(names))
    data = DataMatrix(values=values, mask=mask, columns=tuple(names), weights=weights)
    truth = base
    return data, system, totals, truth


class PerRecordIntervals:
    """The per-record interval derivation that ``impute`` compiles per pattern.

    Each record missing the target is reduced with ``reduce_system`` and
    gets its interval from ``fm.admissible_interval``, one record at a
    time.  It has the interface of ``pipeline._PatternCompiler``, so a test
    can substitute it and compare whole imputations; its ``derive`` serves
    only ``impute``'s structural rule, which it does not replace.
    """

    def __init__(self, edits: EditSystem, columns):
        self.edits = edits
        self.col_idx = {name: j for j, name in enumerate(columns)}
        A, _, is_eq = system_matrices(edits, edits.variables)
        self.derive = fm.Derivations(A, is_eq, edits.variables)

    def intervals(self, current, rows, target):
        intervals = []
        for i in rows:
            row_state = {
                v: float(current[i, self.col_idx[v]])
                for v in self.edits.variables
                if not math.isnan(current[i, self.col_idx[v]])
            }
            try:
                reduced = reduce_system(self.edits, row_state, origin=int(i))
                interval, _ = fm.admissible_interval(reduced, target)
            except InfeasibleSystemError as err:
                raise InfeasibleSystemError(
                    f"record {i}, variable {target!r}: {err}", witness=err.witness
                ) from err
            intervals.append(interval)
        return _PerRecordResult(intervals)


class _PerRecordResult:
    def __init__(self, intervals):
        self.lower = np.array([iv.lower for iv in intervals])
        self.upper = np.array([iv.upper for iv in intervals])

    def stats(self) -> dict:
        bounded = int(np.count_nonzero(np.isfinite(self.lower) & np.isfinite(self.upper)))
        return {
            "count": int(self.lower.size),
            "degenerate": int(np.count_nonzero(self.lower == self.upper)),
            "bounded": bounded,
            "unbounded": int(self.lower.size) - bounded,
        }


def structural_targets(
    edits: EditSystem, columns: Sequence[str], predictors: Mapping[int, Sequence[str]]
) -> set[int]:
    """The targets (positions in ``columns``) that the equality edits fix
    once their predictors are known: with every column outside
    ``predictors[j]`` unknown, eliminating the equalities leaves one in
    target j only (``fm.CompiledInterval.pinned``, the rank condition of
    a pinned key).  That may take a combination of equalities.  Only
    equalities are read: a target that two inequalities squeeze to a point
    (``x >= P``, ``x <= P``) is not structural.

    The rule ``pipeline.structural_targets`` kept before it read the
    derivation cache: one uncached compile of the equalities alone per
    target, over every unknown.  It is the oracle of the cached rule."""
    A, _, is_eq = system_matrices(edits, columns)
    E, eq = A[is_eq], is_eq[is_eq]
    return {
        j
        for j, names in predictors.items()
        if fm.compile_interval(E, eq, columns, [c for c in columns if c not in names], columns[j]).pinned
    }


def lstsq_posterior_fit(values: np.ndarray, target: int, predictors) -> tuple[np.ndarray, float, bool]:
    """Least squares of column ``target`` on an intercept and the
    ``predictors`` columns by ``lstsq`` on the full design: coefficients,
    residual sum of squares, and whether the design has full rank."""
    y = values[:, target]
    Z = np.concatenate([np.ones((values.shape[0], 1)), values[:, list(predictors)]], axis=1)
    coef, _, rank, _ = np.linalg.lstsq(Z, y, rcond=None)
    rss = float(np.sum((y - Z @ coef) ** 2))
    return coef, rss, rank == Z.shape[1]


def lstsq_posterior_model(data: DataMatrix, target: str, predictor_names, record: int, rng: np.random.Generator):
    """The posterior draw refitted from scratch: ``lstsq`` on the current
    data, then β from a Cholesky factor of σ²(ZᵀZ)⁻¹.  Returns the drawn
    coefficients, σ² and the predictive mean; raises on a rank-deficient
    design like ``mcmc.posterior_model``."""
    pred_idx = [data.column_index(p) for p in predictor_names]
    coef, rss, full_rank = lstsq_posterior_fit(data.values, data.column_index(target), pred_idx)
    n, p1 = data.n_records, len(pred_idx) + 1
    if not full_rank:
        raise RankDeficiencyError(f"posterior fit for {target!r} is rank deficient")
    sigma2 = rss / float(rng.chisquare(n - p1)) if rss > 0 else 0.0
    beta = coef
    if sigma2 > 0:
        Z = np.concatenate([np.ones((n, 1)), data.values[:, pred_idx]], axis=1)
        cov = sigma2 * np.linalg.inv(Z.T @ Z)
        cov = 0.5 * (cov + cov.T)
        L = np.linalg.cholesky(cov + 1e-12 * np.trace(cov) / p1 * np.eye(p1))
        beta = coef + L @ rng.standard_normal(p1)
    z_row = np.concatenate([[1.0], data.values[record, pred_idx]])
    return beta, sigma2, float(z_row @ beta)


@lru_cache(maxsize=None)
def _assignments(m: int) -> np.ndarray:
    """All {free, at-lower, at-upper} codes for m cells, as an (3**m, m) array."""
    codes = np.zeros((3**m, m), dtype=np.int8)
    for j in range(m):
        block = 3 ** (m - 1 - j)
        codes[:, j] = (np.arange(3**m) // block) % 3
    return codes


def qp_reference_solve(
    problem: AdjustmentProblem,
    target_sum: float | None = None,
    tol: float = 1e-9,
) -> np.ndarray:
    """Independent solution by exhaustive active-set enumeration.

    Each cell is assumed free, at its lower bound, or at its upper bound;
    the equality-constrained minimizer over the free cells is a single
    common offset, and the first assignment passing primal and dual
    feasibility is the optimum.  Only intended for small test problems.
    """
    m = problem.size
    if m > ORACLE_MAX_SIZE:
        raise ValueError(f"reference solver handles at most {ORACLE_MAX_SIZE} cells, got {m}")
    T = _shifted_target(problem, target_sum)
    T = _check_feasible(problem, T)
    w = problem.weights
    lo = problem.lower - problem.predictions
    hi = problem.upper - problem.predictions

    codes = _assignments(m)
    valid = ~np.any(((codes == 1) & np.isneginf(lo)) | ((codes == 2) & np.isposinf(hi)), axis=1)
    codes = codes[valid]

    at_lo = codes == 1
    at_hi = codes == 2
    free = codes == 0
    wlo = np.where(np.isneginf(lo), 0.0, w * lo)
    whi = np.where(np.isposinf(hi), 0.0, w * hi)
    fixed_sum = at_lo @ wlo + at_hi @ whi
    free_mass = free @ w

    scale = max(1.0, float(np.max(np.abs(np.where(np.isfinite(lo), lo, 0.0)))),
                float(np.max(np.abs(np.where(np.isfinite(hi), hi, 0.0)))), abs(T))
    eps = tol * scale

    has_free = free_mass > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(has_free, (T - fixed_sum) / np.where(has_free, free_mass, 1.0), 0.0)
    # All-pinned assignments: the sum must already match, and some offset
    # must dually separate the two bound groups.
    lam_floor = np.max(np.where(at_hi, hi[None, :], -np.inf), axis=1)
    lam_ceil = np.min(np.where(at_lo, lo[None, :], np.inf), axis=1)
    pinned_ok = (~has_free) & (np.abs(fixed_sum - T) <= eps) & (lam_floor <= lam_ceil + eps)
    lam = np.where(pinned_ok, np.clip(0.0, lam_floor, np.maximum(lam_floor, lam_ceil)), lam)

    ok_primal = np.all(~free | ((lam[:, None] >= lo[None, :] - eps) & (lam[:, None] <= hi[None, :] + eps)), axis=1)
    ok_dual = np.all(~at_lo | (lo[None, :] >= lam[:, None] - eps), axis=1) & np.all(
        ~at_hi | (hi[None, :] <= lam[:, None] + eps), axis=1
    )
    ok = ok_primal & ok_dual & (has_free | pinned_ok)
    hits = np.flatnonzero(ok)
    if hits.size == 0:
        raise InfeasibleAdjustmentError("active-set enumeration found no feasible optimum")
    k = int(hits[0])
    code = codes[k]
    return np.where(code == 1, lo, np.where(code == 2, hi, lam[k]))


def scalar_cell_uniform(seed, variable_index, record) -> float:
    """A cell's uniform from one scalar ``SeedSequence``: the top 52 bits
    of its first 64-bit state word, as the midpoint of their interval."""
    word = int(np.random.SeedSequence([seed, variable_index, record]).generate_state(1, np.uint64)[0])
    return ((word >> 12) + 0.5) * 2.0**-52


def scalar_truncated_normal(sigma, lower, upper, u) -> float:
    """N(0, sigma^2) truncated to ``[lower, upper]`` at ``u``: one cell
    drawn alone, by the library's kernel on one-element arrays.  The
    batched draw must give the same bytes; the kernel's own accuracy is
    checked against stored high-precision references."""
    return float(truncated_normal(sigma, np.array([lower], float), np.array([upper], float), np.array([u], float))[0])


def per_cell_benchmarked_residuals(sigma, intervals, weights, uniforms, target_sum=0.0):
    """Residuals cell by cell: one ``fm.Interval`` and one uniform per
    cell, a zero draw for zero sigma (inside the interval or not), the
    point's value for a point interval, else one
    :func:`scalar_truncated_normal` draw; then the same re-centering to
    ``target_sum`` as :func:`calimp.residuals.benchmarked_residuals`."""
    draws = np.empty(len(intervals))
    drawing = 0
    for i, (interval, u) in enumerate(zip(intervals, uniforms)):
        if sigma == 0.0:
            draws[i] = 0.0
        elif interval.is_point():
            draws[i] = interval.lower
        else:
            draws[i] = scalar_truncated_normal(sigma, interval.lower, interval.upper, float(u))
            drawing += 1
    problem = AdjustmentProblem(
        draws,
        np.array([iv.lower for iv in intervals]),
        np.array([iv.upper for iv in intervals]),
        weights,
    )
    adjustment = zero_sum_interval_adjust(problem, target_sum=target_sum)
    return draws + adjustment, {"attempts": drawing, "fallbacks": 0, **adjustment_stats(problem, adjustment)}


def _complete(record: fm.EliminationRecord, assigned, value_rule) -> dict[str, float]:
    """``fm.back_substitute`` without its own check of the pair system,
    which measures both records' residuals on one scale, the pair's; a pair
    step checks each completed record on its own margin with
    :func:`_check_completed_pair`."""
    return fm.back_substitute(dataclasses.replace(record, system=()), assigned, value_rule=value_rule)


def _margin_scale(edits: EditSystem, columns, rows: np.ndarray) -> float:
    """The pair's margin scale: the larger of the ``rows``'
    ``record_scale``, over the edit variables, observed cells included."""
    referenced = np.any(system_matrices(edits, columns)[0] != 0, axis=0)
    return float(record_scale(rows[:, referenced]).max())


def _check_completed_pair(data: DataMatrix, edits: EditSystem, totals, s: int, t: int, rows) -> None:
    """Raise :class:`InfeasibleSystemError` unless both completed ``rows``
    meet every edit on ``violation_matrix``'s margin, each record's largest
    magnitude over the edit variables, observed cells included, and the
    pair keeps its current weighted sum of each column with a total that
    it imputes, on the larger of the two."""
    if violation_matrix(edits, rows, data.columns).any():
        raise InfeasibleSystemError("completed pair violates an edit")
    margin = DEFAULT_TOL * _margin_scale(edits, data.columns, rows)
    w_s, w_t = float(data.weights[s]), float(data.weights[t])
    for j, name in enumerate(data.columns):
        if name in (totals or {}) and (data.mask[s, j] or data.mask[t, j]):
            share = w_s * data.values[s, j] + w_t * data.values[t, j]
            if abs(w_s * rows[0, j] + w_t * rows[1, j] - share) > margin:
                raise InfeasibleSystemError("completed pair misses its pair sum")


def pair_step(data: DataMatrix, edits: EditSystem, totals, s: int, t: int, var: str, value: float):
    """One chain step the per-record way, as ``mcmc_refine`` took it before
    pair systems were compiled: ``pair_constraint_system``, then
    ``fm.admissible_interval`` for ``s.<var>``, judged on the system's
    scale, the current pair's margin scale (the edits hold to no more), then
    ``fm.back_substitute`` keeping each other unknown's current value
    clamped into its range, the completed records checked as
    :func:`_check_completed_pair` does.

    The target takes ``value``, clamped into this interval (a value drawn
    from another derivation's interval may miss it by rounding).  Returns
    the interval, both records' new rows, and whether the equalities alone
    force every unknown once the target is set; ``None`` where a stage
    raises :class:`InfeasibleSystemError` (the chain's fallback).
    """
    try:
        system, cells = pair_constraint_system(data, edits, totals, s, t)
        target = f"s.{var}"
        interval, record = fm.admissible_interval(system, target)
        completion = _complete(
            record,
            {target: interval.clamp(value)},
            value_rule=lambda name, iv: iv.clamp(float(data.values[cells[name]])),
        )
        rows = data.values[[s, t]].copy()
        for name, v in completion.items():
            rec, col = cells[name]
            rows[0 if rec == s else 1, col] = v
        _check_completed_pair(data, edits, totals, s, t, rows)
    except InfeasibleSystemError:
        return None
    resolved = set(fm.resolve_companions(record, {target: value})) | {target}
    return interval, rows, resolved >= set(system.variables())


def coupled_pair_system(data: DataMatrix, edits: EditSystem, totals, s: int, t: int):
    """``pair_constraint_system`` with its total equalities solved first,
    built edit by edit in dict form, with the pair's margin scale.

    A column imputed in both records with a total keeps one unknown
    ``s.v``, and record t's edits read ``t.v = (R_v - w_s s.v) / w_t``,
    R_v the pair's current weighted sum; a column imputed in one record
    with a total keeps its current value.  Record t's reduced edits are
    scaled by ``w_t / w_s`` and its unknowns without a total stand for
    ``w_t / w_s`` times its cells.  Returns the system, the shares ``R_v``
    by column, and both records' current rows.
    """
    totals = totals or {}
    w_s, w_t = float(data.weights[s]), float(data.weights[t])
    rows = data.values[[s, t]].copy()
    shares = {
        name: w_s * float(rows[0, j]) + w_t * float(rows[1, j])
        for j, name in enumerate(data.columns)
        if name in totals and data.mask[s, j] and data.mask[t, j]
    }

    def reduced(k: int):
        rec = (s, t)[k]
        known = {
            name: float(rows[k, j])
            for j, name in enumerate(data.columns)
            if not data.mask[rec, j] or (name in totals and name not in shares)
        }
        return reduce_system(edits, known, origin=rec)

    reduced_s, reduced_t = reduced(0), reduced(1)
    out = [Edit({f"s.{v}": c for v, c in e.coeffs.items()}, e.constant, e.kind) for e in reduced_s.edits]
    ratio = w_t / w_s
    for e in reduced_t.edits:
        coeffs, const = {}, ratio * e.constant
        for v, c in e.coeffs.items():
            if v in shares:
                coeffs[f"s.{v}"] = -c
                const += c * shares[v] / w_s
            else:
                coeffs[f"t.{v}"] = c
        out.append(Edit(coeffs, const, e.kind))
    return ReducedSystem(tuple(out), _margin_scale(edits, data.columns, rows)), shares, rows


def coupled_pair_step(data: DataMatrix, edits: EditSystem, totals, s: int, t: int, var: str, value: float):
    """One chain step on :func:`coupled_pair_system`: ``fm.admissible_interval``
    and ``fm.back_substitute`` on its scale, ``value`` clamped and the
    keep-current rule as in :func:`pair_step`, the coupled partners then
    following from their shares, and the same check of the
    completed records.  Returns the interval and both new rows, or ``None``
    where a stage raises :class:`InfeasibleSystemError`."""
    try:
        system, shares, rows = coupled_pair_system(data, edits, totals, s, t)
        target = f"s.{var}"
        interval, record = fm.admissible_interval(system, target)
        w_s, w_t = float(data.weights[s]), float(data.weights[t])
        ratio = w_t / w_s

        def current(name):
            role, v = name.split(".", 1)
            j = data.column_index(v)
            return rows[0, j] if role == "s" else ratio * rows[1, j]

        completion = _complete(
            record, {target: interval.clamp(value)}, value_rule=lambda name, iv: iv.clamp(current(name))
        )
        for name, v in completion.items():
            role, col = name.split(".", 1)
            j = data.column_index(col)
            if role == "s":
                rows[0, j] = v
            elif v != current(name):
                rows[1, j] = v / ratio
        for name, share in shares.items():
            j = data.column_index(name)
            rows[1, j] = (share - w_s * rows[0, j]) / w_t
        _check_completed_pair(data, edits, totals, s, t, rows)
    except InfeasibleSystemError:
        return None
    return interval, rows


def _terms(W: np.ndarray) -> list[list[tuple[int, float]]]:
    """Each row of ``W`` as its nonzero (position, coefficient) pairs."""
    return [[(i, a) for i, a in enumerate(row) if a] for row in W.tolist()]


def _dot(terms: list[tuple[int, float]], z: list[float]) -> float:
    """A sparse row's value at ``z``, summed in term order."""
    acc = 0.0
    for i, a in terms:
        acc += a * z[i]
    return acc


def scalar_complete(compiled: fm.CompiledInterval, value: float, y, current) -> list[float]:
    """``fm.CompiledInterval.complete`` of one record in plain Python, term
    by term: the slices in reverse elimination order, each keeping its
    variable's current value clamped into the slice (crossed bounds meet
    at their midpoint), then the substitutions in reverse order.  A slice
    row's constant and a substitution's value sum their terms in
    position order."""
    slice_var, slice_coef = compiled.slice_var.tolist(), compiled.slice_coef.tolist()
    values = list(current)
    values[compiled.unknown.index(compiled.target)] = value
    for var in dict.fromkeys(reversed(slice_var)):
        lower, upper = -math.inf, math.inf
        for k in (k for k, v in enumerate(slice_var) if v == var):
            rest = y[k]
            for i, c in enumerate(slice_coef[k]):
                if c and i != var:
                    rest += c * values[i]
            c = slice_coef[k][var]
            bound = -rest / c
            if c > 0:
                if bound > lower:
                    lower = bound
            elif bound < upper:
                upper = bound
        if lower > upper:
            lower = upper = 0.5 * (lower + upper)
        values[var] = min(max(current[var], lower), upper)
    pivots = compiled.substitution_var.tolist()
    for k in reversed(range(len(pivots))):
        acc = y[len(slice_var) + k]
        for i, c in enumerate(compiled.substitution_coef[k].tolist()):
            if c:
                acc += c * values[i]
        values[pivots[k]] = acc
    return values


def pair_system(systems: mcmc.PairSystems, s: int, t: int, j: int):
    """The compiled system of records ``s`` and ``t`` re-drawing column
    ``j`` of ``s``: ``mcmc.PairSystems.by_key`` on the one pair, which it
    counts as one lookup."""
    return systems.by_key(j, np.array([s]), np.array([t]))[0][0]


class PairStep:
    """One pair update of the chain in plain Python, pair by pair: the
    single-pair oracle of ``mcmc.update_pairs``.  ``system`` is the key's
    (:func:`pair_system`) and ``rows[s]`` and ``rows[t]`` the
    records' current rows (lists, only read).  The target's interval is
    computed on construction, from the key's bound rows evaluated term by
    term on the step vector ``z = [x_s, (w_t/w_s) x_t, R/w_s, 1, w_t/w_s]``;
    bounds that cross meet at their midpoint, whatever the width.  The
    shares are those of the coupled columns in the target's block
    (``system.coupled``).  :meth:`complete` completes the pair at a target
    value and checks it, on ``violation_matrix``'s margin, as the chain
    does."""

    def __init__(self, systems, system, rows, s: int, t: int):
        row_s, row_t = list(rows[s]), list(rows[t])
        imputed_s, imputed_t = systems.mask[s].tolist(), systems.mask[t].tolist()
        self.systems, self.system = systems, system
        self.w_s, self.w_t = w_s, w_t = float(systems.weights[s]), float(systems.weights[t])
        self.old = (row_s, row_t)
        self.imputed = (imputed_s, imputed_t)
        self.ratio = ratio = w_t / w_s
        p = len(row_s)
        self.z = z = row_s + [ratio * v for v in row_t] + [0.0] * p + [1.0, ratio]
        self.shares = shares = {}
        for c in range(p):
            if system.coupled[c]:
                shares[c] = share = w_s * row_s[c] + w_t * row_t[c]
                z[2 * p + c] = share / w_s

        lower, upper = -math.inf, math.inf
        for terms, c in zip(_terms(system.bound_rows), system.compiled.bound_coef.tolist()):
            bound = -_dot(terms, z) / c
            if c > 0:
                if bound > lower:
                    lower = bound
            elif bound < upper:
                upper = bound
        if lower > upper:
            lower = upper = 0.5 * (lower + upper)
        self.interval = fm.Interval(lower, upper)

    def complete(self, value: float) -> tuple[list[float], list[float]]:
        """Both records' rows once the target holds ``value``: the other
        unknowns keep their current values clamped into their slices, the
        rest follow through the equalities, the coupled partners through
        their shares.  A completion that misses an edit reading one of the
        record's imputed columns by more than ``DEFAULT_TOL`` times that
        record's largest magnitude over the referenced columns, or a share
        by more than the larger of the two, raises
        :class:`InfeasibleSystemError`."""
        system, systems, ratio, z = self.system, self.systems, self.ratio, self.z
        row_s, row_t = self.old
        p = len(row_s)
        positions = system.unknowns.tolist()
        current = [z[i] for i in positions]
        y = [_dot(terms, z) for terms in _terms(system.completion_rows)]
        solved = scalar_complete(system.compiled, value, y, current)
        new_s, new_t = list(row_s), list(row_t)
        for i, v, old in zip(positions, solved, current):
            if i < p:
                new_s[i] = v
            elif v != old:  # a kept value stays bit for bit
                new_t[i - p] = v / ratio
        for c, share in self.shares.items():
            new_t[c] = (share - self.w_s * new_s[c]) / self.w_t
        referenced = np.flatnonzero(systems.A.any(axis=0)).tolist()
        margins = [DEFAULT_TOL * max([1.0, *(abs(row[c]) for c in referenced)]) for row in (new_s, new_t)]
        for imputed, row, margin in zip(self.imputed, (new_s, new_t), margins):
            for k in range(len(systems.b)):
                terms = [(c, float(systems.A[k, c])) for c in range(p) if systems.A[k, c]]
                if not any(imputed[c] for c, _ in terms):
                    continue
                r = float(systems.b[k])
                for c, a in terms:
                    r += a * row[c]
                if abs(r) > margin if systems.is_eq[k] else r < -margin:
                    raise InfeasibleSystemError(f"completed pair violates an edit (residual {r:.6g})")
        margin = max(margins)
        for c, share in self.shares.items():
            r = self.w_s * new_s[c] + self.w_t * new_t[c] - share
            if abs(r) > margin:
                raise InfeasibleSystemError(f"completed pair misses its pair sum (residual {r:.6g})")
        return new_s, new_t


def step_chain(data: DataMatrix, edits: EditSystem, totals, iterations: int, seed: int, predictors) -> np.ndarray:
    """The chain one pair at a time, as ``mcmc_refine`` ran before sweeps:
    each step picks an (ordered pair, column) uniformly
    (``mcmc.select_pair``), skips a structural target or a key that pins
    the target, and otherwise draws the column's model from a fresh Gram
    factor of the current values, the target inside its :class:`PairStep`
    interval (``mcmc.draw_truncated_posterior``), and completes the pair,
    keeping it where the completion fails.  ``predictors`` names every
    re-drawn column's predictors.  Returns the final values."""
    state = data.copy()
    values, columns = state.values, list(state.columns)
    rng = np.random.default_rng(seed)
    index = mcmc.PairIndex.build(state.mask)
    design = {columns.index(name): [columns.index(c) for c in names] for name, names in predictors.items()}
    systems = mcmc.PairSystems(state, edits, totals)
    derive = fm.Derivations(systems.A, systems.is_eq, columns)
    structural = {columns.index(name) for name in mcmc.structural_targets(derive, predictors)}
    for _ in range(iterations):
        s, t, j = mcmc.select_pair(index, rng)
        if j in structural or (system := pair_system(systems, s, t, j)).compiled.pinned:
            continue
        rows = {s: values[s].tolist(), t: values[t].tolist()}
        step = PairStep(systems, system, rows, s, t)
        cols = design[j] + [j]
        factor = mcmc.gram_factor(mcmc.gram_matrix(values, cols).tolist(), columns[j])
        model = mcmc.posterior_model(factor, rows[s], design[j], len(values), rng)
        try:
            values[[s, t]] = step.complete(mcmc.draw_truncated_posterior(model, step.interval, rng))
        except InfeasibleSystemError:
            pass
    return values


# ---------------------------------------------------------------------------
# Per-record kernels as first written: each reduction runs along a
# record's C-ordered row, ``violated`` selects with ``np.where`` and the
# unknown mask is a boolean product.  The column-major kernels of
# ``edits`` and ``fm`` must give their bits.

def row_record_scale(values: np.ndarray) -> np.ndarray:
    return np.fmax.reduce(np.abs(values), axis=-1, initial=1.0)


def where_violated(resid, is_eq, margin):
    return np.where(is_eq, np.abs(resid) > margin, resid < -margin)


def boolean_reads_flagged(flags: np.ndarray, A: np.ndarray) -> np.ndarray:
    return flags @ (A != 0).T


def row_violation_matrix(system: EditSystem, values: np.ndarray, columns, tol: float = DEFAULT_TOL) -> np.ndarray:
    A, b, is_eq = system_matrices(system, columns)
    X = np.asarray(values, dtype=float)
    unknown = np.isnan(X)
    X = np.where(unknown, 0.0, X)
    margin = tol * row_record_scale(X[:, np.any(A != 0, axis=0)])
    return where_violated(X @ A.T + b, is_eq, margin[:, None]) & ~boolean_reads_flagged(unknown, A)


def where_read_bounds(const, coef, scale=None, mass=None):
    bounds = -const / coef
    lower = np.max(bounds, axis=1, where=coef > 0, initial=-np.inf)
    upper = np.min(bounds, axis=1, where=coef < 0, initial=np.inf)
    crossed = np.flatnonzero(lower > upper)
    if crossed.size:
        point = 0.5 * (lower[crossed] + upper[crossed])
        if scale is not None:
            loose = bounds[crossed] - np.outer(DEFAULT_TOL * scale[crossed], mass / coef)
            lo = np.max(loose, axis=1, where=coef > 0, initial=-np.inf)
            hi = np.min(loose, axis=1, where=coef < 0, initial=np.inf)
            meet = lo <= hi
            crossed, point = crossed[meet], np.minimum(np.maximum(point[meet], lo[meet]), hi[meet])
        lower[crossed] = upper[crossed] = point
    return lower, upper, bounds


def _cell_rows(handle, empty: str):
    """The stripped header of a CSV file, which names every field, and its
    other rows one at a time, each with its line number and stripped
    fields: blank rows skipped, a field count that differs from the
    header's an error, and a CSV error an error at the line of the record
    it broke."""
    reader = csv.reader(handle)
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise DataFormatError(empty, line=1) from None
    except csv.Error as err:
        raise DataFormatError(str(err), line=1) from None
    for i, name in enumerate(header or [""], start=1):
        if not name:
            raise DataFormatError(f"header field {i} has no name", line=1)

    def rows():
        for lineno in itertools.count(2):
            try:
                raw = next(reader)
            except StopIteration:
                return
            except csv.Error as err:
                raise DataFormatError(str(err), line=lineno) from None
            if not raw or (len(raw) == 1 and not raw[0].strip()):
                continue
            if len(raw) != len(header):
                raise DataFormatError(f"expected {len(header)} fields, found {len(raw)}", line=lineno)
            yield lineno, [cell.strip() for cell in raw]

    return header, rows()


def cell_read_dataset(path) -> DataMatrix:
    """``io.read_dataset`` one cell at a time: strip, marker test,
    ``float`` and a finiteness check per cell, the first error in file
    order raised where it is met."""
    with Path(path).open(newline="", encoding=ENCODING) as handle:
        header, records = _cell_rows(handle, "empty file, expected a header row")
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise DataFormatError(f"duplicate header name(s) {dupes}", line=1)
        w_col = header.index(WEIGHT_COLUMN) if WEIGHT_COLUMN in header else None
        rows, weights = [], []
        for lineno, cells in records:
            out_row = []
            for i, cell in enumerate(cells):
                if i == w_col:
                    try:
                        w = float(cell)
                    except ValueError:
                        raise DataFormatError(f"bad weight {cell!r}", line=lineno) from None
                    if not math.isfinite(w) or w <= 0:
                        raise DataFormatError(f"weights must be positive, got {cell!r}", line=lineno)
                    weights.append(w)
                    continue
                if cell in MISSING_MARKERS:
                    out_row.append(math.nan)
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise DataFormatError(f"bad numeric field {cell!r}", line=lineno) from None
                if not math.isfinite(value):
                    raise DataFormatError(f"non-finite value {cell!r}", line=lineno)
                out_row.append(value)
            rows.append(out_row)
    if not rows:
        raise DataFormatError("no records")
    values = np.array(rows, dtype=float)
    return DataMatrix(
        values=values,
        mask=np.isnan(values),
        columns=tuple(h for i, h in enumerate(header) if i != w_col),
        weights=np.array(weights) if w_col is not None else None,
    )


def cell_read_mask(path, columns=None) -> np.ndarray:
    """``io.read_mask`` one row at a time."""
    with Path(path).open(newline="", encoding=ENCODING) as handle:
        header, records = _cell_rows(handle, "empty mask file")
        if columns is not None and header != list(columns):
            raise DataFormatError(f"mask columns {header} do not match dataset columns {list(columns)}", line=1)
        rows = []
        for lineno, cells in records:
            if any(cell not in ("0", "1") for cell in cells):
                raise DataFormatError("mask cells must be 0 or 1", line=lineno)
            rows.append([cell == "1" for cell in cells])
    if not rows:
        raise DataFormatError("no records in mask file")
    return np.array(rows, dtype=bool)
