"""Pair-swap refinement of a fully imputed, fully consistent data set.

Each step picks two records sharing an imputed variable, treats all their
imputed cells as unknowns again, and rebuilds the constraints those cells
must satisfy: the records' reduced edits plus, per variable with a known
total, the requirement that the pair's imputed values absorb exactly what
the rest of the column leaves over.  One cell is re-drawn from a
truncated posterior predictive distribution inside its admissible
interval, and the remaining unknowns are repaired through the equality
structure (keeping their current values wherever the constraints leave
slack).  Edits and totals therefore hold after every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import fm, metrics
from .edits import DEFAULT_TOL, Edit, EditKind, EditSystem, ReducedSystem, reduce_system
from .errors import CalimpError, InfeasibleSystemError, InsufficientDataError, RankDeficiencyError
from .pipeline import DataMatrix, Totals, validate
from .residuals import draw_ar_residual

MAX_PAIR_PROPOSALS = 1_000_000


@dataclass(frozen=True)
class McmcConfig:
    iterations: int | None = None  # default: 20 per imputed cell
    checkpoint_every: int | None = None  # default: iterations // 20
    seed: int = 0
    # Default predictor set per variable: the fully observed columns (all
    # other columns when nothing is fully observed).  With balance edits,
    # "all other columns" is an exact identity for every member of the
    # balance, which degenerates the posterior; fully observed predictors
    # avoid that trap.
    predictors: Mapping[str, Sequence[str]] | None = None


@dataclass(frozen=True)
class PosteriorModel:
    """One draw from the regression posterior for a target cell.

    ``coefficients`` and ``variance`` are the drawn parameter values under
    the standard noninformative prior; the predictive distribution for the
    cell is normal with the stored mean and variance.
    """

    coefficients: np.ndarray
    variance: float
    predictive_mean: float
    predictive_variance: float


def select_pair(data: DataMatrix, rng: np.random.Generator) -> tuple[int, int, str]:
    """Two records sharing an imputed variable, uniform over all such
    (unordered pair, variable) combinations via rejection sampling.

    Which record of the pair is returned first (and so gets the fresh
    draw) is a fair coin from the same stream.
    """
    mask = data.mask
    eligible_cols = [j for j in range(mask.shape[1]) if int(mask[:, j].sum()) >= 2]
    if not eligible_cols:
        raise CalimpError("no two records share an imputed variable")
    r = data.n_records
    for _ in range(MAX_PAIR_PROPOSALS):
        s = int(rng.integers(r))
        t = int(rng.integers(r))
        if s == t:
            continue
        j = eligible_cols[int(rng.integers(len(eligible_cols)))]
        if mask[s, j] and mask[t, j]:
            if int(rng.integers(2)):
                s, t = t, s
            return s, t, data.columns[j]
    raise CalimpError("pair selection failed to find an eligible pair")  # pragma: no cover


def pair_constraint_system(
    data: DataMatrix,
    edits: EditSystem,
    totals: Totals | None,
    s: int,
    t: int,
    colsums: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
) -> tuple[ReducedSystem, dict[str, tuple[int, int]]]:
    """Constraints on the imputed cells of records ``s`` and ``t``.

    Unknowns are named ``s.<var>`` / ``t.<var>``; the returned map sends
    each name to its (record, column) cell.  Weighted column totals turn
    into pair-sum equalities for variables imputed in both records and
    into pinning equalities for variables imputed in exactly one.
    """
    if colsums is None:
        colsums = data.weights @ data.values
    cells: dict[str, tuple[int, int]] = {}
    out: list[Edit] = []
    for role, rec in (("s", s), ("t", t)):
        row = {}
        for j, name in enumerate(data.columns):
            if data.mask[rec, j]:
                cells[f"{role}.{name}"] = (rec, j)
            else:
                row[name] = float(data.values[rec, j])
        reduced = reduce_system(edits, row, tol=tol, origin=rec)
        for edit in reduced.edits:
            out.append(Edit({f"{role}.{v}": c for v, c in edit.coeffs.items()}, edit.constant, edit.kind))

    if totals:
        w_s = float(data.weights[s])
        w_t = float(data.weights[t])
        for j, name in enumerate(data.columns):
            if name not in totals:
                continue
            in_s = bool(data.mask[s, j])
            in_t = bool(data.mask[t, j])
            if not (in_s or in_t):
                continue
            others = float(colsums[j]) - w_s * float(data.values[s, j]) - w_t * float(data.values[t, j])
            remainder = float(totals[name]) - others
            if in_s and in_t:
                out.append(Edit({f"s.{name}": w_s, f"t.{name}": w_t}, -remainder, EditKind.EQUALITY))
            elif in_s:
                pinned = remainder - w_t * float(data.values[t, j])
                out.append(Edit({f"s.{name}": w_s}, -pinned, EditKind.EQUALITY))
            else:
                pinned = remainder - w_s * float(data.values[s, j])
                out.append(Edit({f"t.{name}": w_t}, -pinned, EditKind.EQUALITY))
    return ReducedSystem(tuple(out)), cells


def posterior_model(
    data: DataMatrix,
    target: str,
    predictor_names: Sequence[str],
    record: int,
    rng: np.random.Generator,
) -> PosteriorModel:
    """Parameter draw under the standard noninformative prior, refitted on
    the current (complete) data, and the implied predictive law for the
    target cell of ``record``."""
    t = data.column_index(target)
    pred_idx = [data.column_index(p) for p in predictor_names]
    y = data.values[:, t]
    Z = np.concatenate([np.ones((data.n_records, 1)), data.values[:, pred_idx]], axis=1)
    n, p1 = Z.shape
    df = n - p1
    if df <= 0:
        raise InsufficientDataError(f"only {n} records for {p1} regression parameters")
    coef, _, rank, _ = np.linalg.lstsq(Z, y, rcond=None)
    if rank < p1:
        raise RankDeficiencyError(
            f"posterior fit for {target!r} is rank deficient", column=None
        )
    rss = float(np.sum((y - Z @ coef) ** 2))
    sigma2 = rss / float(rng.chisquare(df)) if rss > 0 else 0.0
    if sigma2 > 0:
        cov = sigma2 * np.linalg.inv(Z.T @ Z)
        cov = 0.5 * (cov + cov.T)
        L = np.linalg.cholesky(cov + 1e-12 * np.trace(cov) / p1 * np.eye(p1))
        beta = coef + L @ rng.standard_normal(p1)
    else:
        beta = coef
    z_row = np.concatenate([[1.0], data.values[record, pred_idx]])
    return PosteriorModel(
        coefficients=beta,
        variance=sigma2,
        predictive_mean=float(z_row @ beta),
        predictive_variance=sigma2,
    )


def draw_truncated_posterior(
    model: PosteriorModel,
    interval: fm.Interval,
    rng: np.random.Generator,
) -> float:
    """Predictive draw conditioned on landing inside the interval."""
    if interval.is_point():
        return interval.lower
    sigma = math.sqrt(model.predictive_variance)
    shifted = fm.Interval(interval.lower - model.predictive_mean, interval.upper - model.predictive_mean)
    if sigma == 0.0:
        if not shifted.contains(0.0):
            return float(interval.clamp(model.predictive_mean))
        return model.predictive_mean
    draw = draw_ar_residual(sigma, shifted, rng)
    return model.predictive_mean + draw.value


def _checkpoint_row(data: DataMatrix, iteration: int, previous: dict, stats: dict) -> dict:
    per_variable = {}
    for j, name in enumerate(data.columns):
        cells = data.values[data.mask[:, j], j]
        if cells.size == 0:
            continue
        entry = {"mean": float(np.mean(cells)), "std": float(np.std(cells))}
        if name in previous:
            entry["ks_vs_prev"] = metrics.ks_statistic(previous[name], cells)
        per_variable[name] = entry
        previous[name] = cells.copy()
    return {"iteration": iteration, "per_variable": per_variable, **stats}


def mcmc_refine(
    data: DataMatrix,
    edits: EditSystem,
    totals: Totals | None,
    config: McmcConfig | None = None,
) -> tuple[DataMatrix, list[dict]]:
    """Run the pair-swap chain; returns the refined data and its trace.

    The input must be complete and consistent with the edits and totals
    (its mask marks the imputed cells).  Consistency is revalidated at
    every checkpoint; a step whose constraint system turns out infeasible
    falls back to retaining the current values and is counted.
    """
    if config is None:
        config = McmcConfig()
    if not data.is_complete():
        raise ValueError("refinement expects fully imputed data")
    validate(data.values, data, edits, totals)

    n_imputed = int(data.mask.sum())
    iterations = config.iterations if config.iterations is not None else 20 * n_imputed
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    checkpoint_every = (
        config.checkpoint_every
        if config.checkpoint_every is not None
        else max(1, iterations // 20)
    )
    state = data.copy()
    trace: list[dict] = []
    if iterations == 0:
        return state, trace

    rng = np.random.default_rng(config.seed)
    colsums = state.weights @ state.values
    observed_cols = [
        name for j, name in enumerate(state.columns) if not state.mask[:, j].any()
    ]
    predictors = {}
    for name in state.columns:
        if config.predictors is not None and name in config.predictors:
            predictors[name] = list(config.predictors[name])
        else:
            fallback = [c for c in observed_cols if c != name]
            predictors[name] = fallback or [c for c in state.columns if c != name]
    previous_cells: dict[str, np.ndarray] = {}
    fallbacks = 0
    accepted = 0

    for iteration in range(1, iterations + 1):
        s, t, var = select_pair(state, rng)
        j = state.column_index(var)
        try:
            system, cells = pair_constraint_system(state, edits, totals, s, t, colsums=colsums)
            target = f"s.{var}"
            interval, record = fm.admissible_interval(system, target)
            current = float(state.values[s, j])
            # The edits hold to tol times each record's largest magnitude, so
            # a cell pinned by large constants may miss its point interval
            # by that much; measure the miss on the same scale.
            slack = DEFAULT_TOL * max(1.0, float(np.abs(state.values[[s, t]]).max()))
            if not interval.lower - slack <= current <= interval.upper + slack:
                raise CalimpError(
                    f"step {iteration}: current value {current!r} of record {s}, "
                    f"variable {var!r} fell outside its admissible interval "
                    f"[{interval.lower}, {interval.upper}]"
                )
            model = posterior_model(state, var, predictors[var], s, rng)
            value = draw_truncated_posterior(model, interval, rng)

            def retain_rule(name: str, iv: fm.Interval) -> float:
                rec, col = cells[name]
                return iv.clamp(float(state.values[rec, col]))

            completion = fm.back_substitute(record, {target: value}, value_rule=retain_rule)
        except InfeasibleSystemError:
            # The current point is always feasible, so the step can keep it.
            fallbacks += 1
        else:
            for name, val in completion.items():
                rec, col = cells[name]
                delta = val - float(state.values[rec, col])
                if delta != 0.0:
                    colsums[col] += state.weights[rec] * delta
                    state.values[rec, col] = val
            accepted += 1

        if iteration % checkpoint_every == 0 or iteration == iterations:
            colsums = state.weights @ state.values
            validate(state.values, state, edits, totals)
            trace.append(
                _checkpoint_row(
                    state,
                    iteration,
                    previous_cells,
                    {"accepted": accepted, "fallbacks": fallbacks},
                )
            )
    return state, trace
