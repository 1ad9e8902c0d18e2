"""Pair-swap refinement of a fully imputed, fully consistent data set.

The chain runs in sweeps.  A sweep picks a column j with two or more
imputed cells, with probability proportional to n_j (n_j - 1) over the
columns' counts n_j of imputed cells, pairs j's imputed records at random
into disjoint pairs (s, t), and draws j's regression model once from its
posterior given the current data.  Each pair update treats all imputed
cells of its two records as unknowns again, under the constraints those
cells must satisfy: the records' reduced edits plus, per variable with a
known total, the requirement that the pair's imputed values keep their
current weighted sum.  Cell (s, j) is re-drawn from the model's
predictive distribution truncated to its admissible interval, and the
remaining unknowns are repaired through the equality structure (keeping
their current values wherever the constraints leave slack).  A pair
update checks feasibility once, when it completes: both completed records
against their edits, on ``violation_matrix``'s margin, and the pair's
sums; a completion that fails leaves that pair as it was.  Edits and
totals therefore hold after every update, and the totals' values enter
none.

Given the model, the pairs of a sweep share no cell, and each conserves
its own weighted sums, so no total couples them: their updates are
conditionally independent, and the sweep computes them together.  The
derivation is compiled once per pair shape (:class:`PairSystems`) into
dense rows over a pair's step vector; a sweep evaluates each key's rows
on the stacked step vectors of its pairs, draws every target with one
call of :func:`calimp.residuals.truncated_normal`, and completes and
checks the pairs as arrays.

Read the chain as data augmentation on the model and the imputed cells
(Tanner & Wong 1987, "The calculation of posterior distributions by data
augmentation"): a model draw is a draw of the model given the cells, and
a pair update a move of the cells given the model.  If each update keeps
the cells' law given the model, a model draw followed by any number of
updates keeps the joint law, so a sweep keeps the chain's law.  Liu, Wong
& Kong (1994, "Covariance structure of the Gibbs sampler") compare such
blocked scans with one-at-a-time ones.  ``tests/test_sweep.py`` compares
the final cells of seeded sweep chains with those of the one-pair
reference chain, ``tests/_oracles.step_chain``.

Most updates cannot move, and the target or the key alone says which.  A
target that the equality edits fix once its predictors are known
(:func:`structural_targets`) has a degenerate posterior, σ² = 0, and every
update on it returns the current value up to rounding; a key whose
equalities fix the target (``fm.CompiledInterval.pinned``) gives it a
point.  Either update is the identity whatever the state.  It is counted
as accepted and ``pinned`` and does nothing else: a structural column's
sweep draws no pairs and looks no key up, and a sweep whose keys all pin
the target draws no model.

``iterations`` counts pair updates, skipped ones included, so a sweep of
column j makes ``n_j // 2`` of them.  A sweep stops at the next
checkpoint, whose ``iteration`` is therefore an exact multiple of
``checkpoint_every`` (or the last update).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import fm, metrics
from .edits import (
    Edit, EditKind, EditSystem, ReducedSystem, reads_flagged, record_scale, reduce_system, system_matrices,
    violations,
)
from .errors import CalimpError, InsufficientDataError
from .pipeline import (
    DataMatrix, Totals, _missing_patterns, check_inputs, check_integer, check_totals, structural_targets, validate,
)
from .regression import gram_factor, independent_predictors
from .residuals import draw_ar_residual, generator_uniforms, truncated_normal


@dataclass(frozen=True)
class McmcConfig:
    # Pair updates, skipped ones included; a sweep of column j makes
    # n_j // 2 of them.  Default: 20 per imputed cell.
    iterations: int | None = None
    # Pair updates between checkpoints; a sweep stops at each checkpoint.
    # Default: iterations // 20.
    checkpoint_every: int | None = None
    seed: int = 0
    # Default predictor set per variable: the fully observed columns (all
    # other columns when nothing is fully observed).  With balance edits,
    # "all other columns" is an exact identity for every member of the
    # balance, which degenerates the posterior; fully observed predictors
    # avoid that trap.  A default set loses, in order, each column that the
    # rank rule of every fit finds dependent on the input (independent_predictors).
    predictors: Mapping[str, Sequence[str]] | None = None

    def __post_init__(self):
        if self.iterations is not None:
            check_integer("iterations", self.iterations)
        if self.checkpoint_every is not None:
            check_integer("checkpoint_every", self.checkpoint_every, least=1)
        check_integer("seed", self.seed)


class PosteriorModel(NamedTuple):
    """One draw from the regression posterior for a target cell.

    ``coefficients`` and ``variance`` are the drawn parameter values under
    the standard noninformative prior; the predictive distribution for the
    cell is normal with mean ``predictive_mean`` and that variance.
    """

    coefficients: list[float]
    variance: float
    predictive_mean: float


@dataclass(frozen=True)
class PairIndex:
    """The imputed rows of each column and the cumulative pair counts
    ``n_j (n_j - 1)`` over the columns, for :func:`select_pair`."""

    rows: tuple[list[int], ...]
    cumulative: tuple[int, ...]

    @classmethod
    def build(cls, mask: np.ndarray) -> PairIndex:
        rows = tuple(np.flatnonzero(mask[:, j]).tolist() for j in range(mask.shape[1]))
        cumulative = tuple(itertools.accumulate(len(r) * (len(r) - 1) for r in rows))
        if not cumulative or cumulative[-1] == 0:
            raise CalimpError("no two records share an imputed variable")
        return cls(rows, cumulative)


def _uniform_below(rng: np.random.Generator, n: int) -> int:
    """Exactly uniform integer in [0, n) from raw 64-bit draws, rejecting
    the incomplete block at the top."""
    limit = 2**64 - 2**64 % n
    while True:
        raw = rng.bit_generator.random_raw()
        if raw < limit:
            return raw % n


def select_pair(index: PairIndex, rng: np.random.Generator) -> tuple[int, int, int]:
    """Two distinct records sharing an imputed column, and the column's
    position, uniform over all such (ordered pair, column) combinations,
    in O(1): the one-pair step of the tests' step chain.

    One integer draw numbers all combinations column by column: its
    column j has probability ∝ n_j (n_j - 1), its number of ordered pairs,
    and its offset within that column is the ordered pair (a, b) of imputed
    rows, b skipping a.  The first record returned gets the fresh draw.
    """
    cumulative = index.cumulative
    k = _uniform_below(rng, cumulative[-1])
    j = bisect.bisect_right(cumulative, k)
    rows = index.rows[j]
    a, b = divmod(k - (cumulative[j - 1] if j else 0), len(rows) - 1)
    if b >= a:
        b += 1
    return rows[a], rows[b], j


def pair_constraint_system(
    data: DataMatrix,
    edits: EditSystem,
    totals: Totals | None,
    s: int,
    t: int,
) -> tuple[ReducedSystem, dict[str, tuple[int, int]]]:
    """Constraints on the imputed cells of records ``s`` and ``t``.

    Unknowns are named ``s.<var>`` / ``t.<var>``; the returned map sends
    each name to its (record, column) cell.  A column with a known total
    keeps the pair's current weighted sum of its imputed cells: a pair-sum
    equality for a variable imputed in both records, and a pin at its
    current value for one imputed in exactly one.  The system's scale is
    the pair's margin scale, the larger of the two current rows'
    :func:`calimp.edits.record_scale`.
    """
    cells: dict[str, tuple[int, int]] = {}
    out: list[Edit] = []
    for role, rec in (("s", s), ("t", t)):
        row = {}
        for j, name in enumerate(data.columns):
            if data.mask[rec, j]:
                cells[f"{role}.{name}"] = (rec, j)
            else:
                row[name] = float(data.values[rec, j])
        reduced = reduce_system(edits, row, origin=rec)
        for edit in reduced.edits:
            out.append(Edit({f"{role}.{v}": c for v, c in edit.coeffs.items()}, edit.constant, edit.kind))

    for j, name in enumerate(data.columns):
        if name not in (totals or {}):
            continue
        coeffs, share = {}, 0.0
        for role, rec in (("s", s), ("t", t)):
            if data.mask[rec, j]:
                w = float(data.weights[rec])
                coeffs[f"{role}.{name}"] = w
                share += w * float(data.values[rec, j])
        if coeffs:
            out.append(Edit(coeffs, -share, EditKind.EQUALITY))
    referenced = [j for j, name in enumerate(data.columns) if any(name in edit.coeffs for edit in edits.edits)]
    scale = float(record_scale(data.values[np.ix_([s, t], referenced)]).max())
    return ReducedSystem(tuple(out), scale), cells


class _KeySystem(NamedTuple):
    """A key's compiled pair system as dense rows over the step vector
    ``z`` (see :class:`PairSystems`).  Where ``compiled.pinned``, the key's
    equalities fix the target, so an update on it is the identity (see
    :func:`mcmc_refine`).  ``bound_rows`` maps ``z`` to the constants of
    the bound rows (``compiled.bound_comb`` applied to the pair's edit
    constants), and ``completion_rows`` to those of the slice rows, then
    of the substitution constants, that only the completion reads.
    ``unknowns`` holds the position in ``z`` of each of
    ``compiled.unknown``: its column for one of record s, p plus its
    column for one of record t.  ``in_s`` and ``in_t`` list the unknowns'
    positions among ``unknowns`` and their columns, record by record, and
    ``coupled`` flags the coupled columns inside the target's block."""

    compiled: fm.CompiledInterval
    bound_rows: np.ndarray
    completion_rows: np.ndarray
    unknowns: np.ndarray
    in_s: tuple[np.ndarray, np.ndarray]
    in_t: tuple[np.ndarray, np.ndarray]
    coupled: np.ndarray


class PairSystems:
    """The constraint systems of a chain's record pairs, compiled once per
    key into dense rows over a pair's step vector.

    A pair's unknowns are the imputed cells of its records s and t.  Its
    constraints are both records' edits with their observed values folded
    in, and, per column with a known total, the requirement that the
    pair's imputed cells keep their current weighted sum.  Those sums'
    equalities are solved first.  A column imputed in both records that
    carries a total (the coupled columns, V_T) keeps one unknown ``s.v``;
    its partner is ``t.v = (R_v - w_s s.v) / w_t``, where R_v is the pair's
    current weighted sum ``w_s x_s[v] + w_t x_t[v]``.  A column imputed in
    one record only and carrying a total keeps its current value, a
    constant.  Record t's rows are scaled by ``w_t / w_s > 0`` and its
    imputed columns without a total are rescaled by the same factor, so
    every coefficient is an edit coefficient and weights and values enter
    only through the constants.  The key is therefore (target, V_T,
    s's imputed columns without a total, t's imputed columns without a
    total).  The chain's one 2K x 2p pair matrix stacks s's edit rows, over
    columns 0..p-1, on t's, over columns p..2p-1 but with each column that
    has a total negated into s's; over a key's unknowns these are its
    coefficients.  A key compiles over its target's block (``derive``), and
    the pair's other cells are constants.

    Every row reads the pair's step vector ``z = [x_s, (w_t/w_s) x_t,
    R/w_s, 1, w_t/w_s]``, with R the coupled columns' shares (0 in the
    other columns): the pair's current weighted sums, which the update
    conserves.  Records are grouped by their pattern of imputed columns
    (``pipeline._missing_patterns``), so a key follows from two pattern
    ids, and :meth:`by_key` looks a sweep's pairs up by key.  ``systems``
    holds each key met, and ``hits`` counts the pair lookups that found
    their key's system.
    :func:`pair_constraint_system` builds one pair's system the per-record
    way, without solving the sums first: the tests' reference.
    """

    def __init__(self, data: DataMatrix, edits: EditSystem, totals: Totals | None):
        self.columns = data.columns
        self.A, self.b, self.is_eq = system_matrices(edits, data.columns)
        self.has_total = np.array([name in (totals or {}) for name in data.columns], dtype=bool)
        self.with_total = sum(1 << j for j, name in enumerate(data.columns) if name in (totals or {}))
        self.mask = data.mask
        self.weights = data.weights
        # Each record's imputed columns as a bit mask, through the id of its
        # pattern among the distinct ones.
        patterns, self.pattern_id = _missing_patterns(data.mask)
        self.pattern_bits = [sum(1 << c for c in np.flatnonzero(row).tolist()) for row in patterns]
        # Per record: the edits a completion is checked against, those that
        # read one of its imputed columns.
        self.checked = reads_flagged(data.mask, self.A)
        # s's rows over columns 0..p-1, t's over p..2p-1 with each column
        # that has a total negated into s's; 0.0 - A keeps absent entries at +0.0.
        A, total = self.A, self.has_total
        pair_A = np.block([[A, np.zeros_like(A)], [np.where(total, 0.0 - A, 0.0), np.where(total, 0.0, A)]])
        labels = [f"s.{v}" for v in self.columns] + [f"t.{v}" for v in self.columns]  # they order the unknowns
        self.derive = fm.Derivations(pair_A, np.concatenate([self.is_eq, self.is_eq]), labels)
        self.systems: dict[tuple[int, int, int, int], _KeySystem] = {}
        self.hits = 0

    def _compile(self, j: int, coupled: int, free_s: int, free_t: int) -> _KeySystem:
        """The system of the key (``j``, ``coupled``, ``free_s``,
        ``free_t``), over the target's block."""
        A, labels = self.A, self.derive.names
        K, p = A.shape
        # s's imputed columns, then t's free ones: a coupled t.v follows from s.v.
        pattern = np.array([[(coupled | free_s) >> c & 1 for c in range(p)] + [free_t >> c & 1 for c in range(p)]])
        block = self.derive.blocks(pattern == 1, labels[j])[0]
        compiled = self.derive(block, labels[j])
        in_s, in_t = block[:p], block[p:]
        is_coupled = in_s & self.has_total
        # Constants of the 2K rows from z = [x_s, (w_t/w_s) x_t, R / w_s, 1, w_t/w_s].
        M = np.zeros((2 * K, 3 * p + 2))
        M[:K, :p] = np.where(in_s, 0.0, A)
        M[:K, 3 * p] = self.b
        M[K:, p : 2 * p] = np.where(in_t | is_coupled, 0.0, A)
        M[K:, 2 * p : 3 * p] = np.where(is_coupled, A, 0.0)
        M[K:, 3 * p + 1] = self.b
        unknowns = np.array([labels.index(v) for v in compiled.unknown], dtype=np.intp)
        of_t = unknowns >= p
        return _KeySystem(
            compiled,
            compiled.bound_comb @ M,
            np.vstack([compiled.slice_comb, compiled.substitution_comb]) @ M,
            unknowns,
            (np.flatnonzero(~of_t), unknowns[~of_t]),
            (np.flatnonzero(of_t), unknowns[of_t] - p),
            is_coupled,
        )

    def by_key(self, j: int, s: np.ndarray, t: np.ndarray) -> list[tuple[_KeySystem, np.ndarray, np.ndarray]]:
        """The pairs ``(s[i], t[i])`` re-drawing column ``j``, grouped by
        key: each key's system, compiled when the key is first met, and its
        pairs' s and t, in their order.  A key follows from the two
        records' pattern ids alone; each pair counts as one lookup."""
        count, bits, with_total = len(self.pattern_bits), self.pattern_bits, self.with_total
        by_code: dict[int, list[int]] = {}
        for i, code in enumerate((self.pattern_id[s] * count + self.pattern_id[t]).tolist()):
            by_code.setdefault(code, []).append(i)
        by_key: dict[tuple[int, int, int, int], list[int]] = {}
        for code, at in by_code.items():
            ps, pt = bits[code // count], bits[code % count]
            by_key.setdefault((j, ps & pt & with_total, ps & ~with_total, pt & ~with_total), []).extend(at)
        groups = []
        for key, at in by_key.items():
            at.sort()
            system = self.systems.get(key)
            if system is None:
                system = self.systems[key] = self._compile(*key)
                self.hits -= 1
            self.hits += len(at)
            groups.append((system, s[at], t[at]))
        return groups


class PairUpdates(NamedTuple):
    """A block of pair updates at one model: per pair (``s[i]``,
    ``t[i]``), the target's interval, the value drawn in it, both
    completed rows and whether they passed the completion check."""

    s: np.ndarray
    t: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    value: np.ndarray
    new_s: np.ndarray
    new_t: np.ndarray
    feasible: np.ndarray


def draw_targets(
    mean: np.ndarray, variance: float, lower: np.ndarray, upper: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """:func:`draw_truncated_posterior` for many cells at one variance:
    each cell's predictive draw, with mean ``mean[i]``, inside its interval
    [``lower[i]``, ``upper[i]``]; with zero variance, the mean clamped into
    it.  A point interval gives its point, and an interval that is a point
    once shifted by the mean (narrow and far from it) the shifted point.
    Every other cell draws with :func:`truncated_normal` at one uniform
    from ``rng`` (:func:`generator_uniforms`), in order."""
    if variance == 0.0:
        return np.minimum(np.maximum(mean, lower), upper)
    a, b = lower - mean, upper - mean
    value = np.where(lower == upper, lower, mean + a)
    draw = (lower != upper) & (a != b)
    if draw.any():
        uniforms = generator_uniforms(rng, int(np.count_nonzero(draw)))
        value[draw] = mean[draw] + truncated_normal(math.sqrt(variance), a[draw], b[draw], uniforms)
    return value


def update_pairs(
    systems: PairSystems,
    values: np.ndarray,
    groups: Sequence[tuple[_KeySystem, np.ndarray, np.ndarray]],
    coefficients: Sequence[float],
    variance: float,
    predictors: Sequence[int],
    rng: np.random.Generator,
) -> PairUpdates:
    """The updates of disjoint pairs re-drawing one column at ``values``,
    at one drawn model of it: regression ``coefficients`` (intercept
    first) on the columns ``predictors``, and ``variance``.  ``groups``
    holds, per key whose system does not pin the target, the system and
    its pairs' records s and t (:meth:`PairSystems.by_key`); the result
    lists the pairs group by group.  ``values`` is only read.

    Per key, the bound rows are evaluated on the pairs' stacked step
    vectors; every target is drawn by :func:`draw_targets`; each key's
    pairs are completed by the array form of
    ``fm.CompiledInterval.complete``.  An update checks feasibility once,
    when it completes, on ``violation_matrix``'s margin and nowhere else:
    each completed record against the edits that read one of its imputed
    columns, to ``DEFAULT_TOL`` times its largest magnitude over the
    referenced columns (observed cells included), and each coupled
    column's pair sum to the larger of the two margins.  A current row
    meets each edit only to that margin, and a derived bound sums several
    edits, so a current value may lie outside its interval by more; a
    crossing that no completion can take fails the check."""
    s = np.concatenate([gs for _, gs, _ in groups])
    t = np.concatenate([gt for _, _, gt in groups])
    w_s, w_t = systems.weights[s, None], systems.weights[t, None]
    x_s, x_t = values[s], values[t]
    ratio = w_t / w_s
    coupled = np.concatenate([np.tile(system.coupled, (len(gs), 1)) for system, gs, _ in groups])
    shares = np.where(coupled, w_s * x_s + w_t * x_t, 0.0)
    Z = np.hstack([x_s, ratio * x_t, shares / w_s, np.ones_like(ratio), ratio])

    spans, start = [], 0
    for system, gs, _ in groups:
        spans.append((system, slice(start, start + len(gs))))
        start += len(gs)
    lower, upper = np.empty(len(s)), np.empty(len(s))
    for system, rows in spans:
        lower[rows], upper[rows], _ = fm.read_bounds(Z[rows] @ system.bound_rows.T, system.compiled.bound_coef)
    mean = np.full(len(s), float(coefficients[0]))
    for c, beta in zip(predictors, coefficients[1:]):
        mean += x_s[:, c] * beta
    value = draw_targets(mean, variance, lower, upper, rng)

    new_s, new_t = x_s.copy(), x_t.copy()
    for system, rows in spans:
        z = Z[rows]
        current = z[:, system.unknowns]
        solved = system.compiled.complete(value[rows], z @ system.completion_rows.T, current)
        (at_s, cols_s), (at_t, cols_t) = system.in_s, system.in_t
        new_s[rows, cols_s] = solved[:, at_s]
        solved_t = solved[:, at_t]
        kept = solved_t == current[:, at_t]  # a kept value stays bit for bit
        new_t[rows, cols_t] = np.where(kept, new_t[rows, cols_t], solved_t / ratio[rows])
    new_t = np.where(coupled, (shares - w_s * new_s) / w_t, new_t)

    broken, margin = violations(systems.A, systems.b, systems.is_eq, np.concatenate([new_s, new_t]))
    # Each any reduces down the records axis, on a column-major copy.
    broken = np.asfortranarray(broken & systems.checked[np.concatenate([s, t])]).any(axis=1)
    margin = np.maximum(margin[: len(s)], margin[len(s) :])
    missed = coupled & (np.abs(w_s * new_s + w_t * new_t - shares) > margin[:, None])
    feasible = ~(broken[: len(s)] | broken[len(s) :] | np.asfortranarray(missed).any(axis=1))
    return PairUpdates(s, t, lower, upper, value, new_s, new_t, feasible)


def gram_matrix(values: np.ndarray, columns: Sequence[int]) -> np.ndarray:
    """Augmented Gram matrix AᵀA of A = [1, values[:, columns]]; the last
    column is the target, the others its predictors."""
    A = np.ones((values.shape[0], len(columns) + 1))
    A[:, 1:] = values[:, list(columns)]
    return A.T @ A


def draw_parameters(
    factor: tuple[list[list[float]], list[float], float], n: int, rng: np.random.Generator
) -> tuple[list[float], float]:
    """Regression coefficients (intercept first) and residual variance
    drawn under the standard noninformative prior from ``factor``,
    :func:`gram_factor` of the augmented Gram matrix of ``[1, predictors,
    target]`` over ``n`` records, in O(p²) in the parameter count p:
    σ² = rss / χ²(n - p) and β = L⁻ᵀ(l + σε); an exact fit (rss 0) draws
    nothing and returns the least-squares coefficients with zero
    variance.  ``factor`` is only read."""
    L, l, rss = factor
    p1 = len(l)
    if n <= p1:
        raise InsufficientDataError(f"only {n} records for {p1} regression parameters")
    sigma2 = rss / float(rng.chisquare(n - p1)) if rss > 0 else 0.0
    if sigma2 > 0:
        sigma = math.sqrt(sigma2)
        l = [v + sigma * e for v, e in zip(l, rng.standard_normal(p1).tolist())]
    beta = list(l)  # overwritten from the last entry down: β = L⁻ᵀ l
    for i in range(p1 - 1, -1, -1):
        acc = l[i]
        for k in range(i + 1, p1):
            acc -= L[k][i] * beta[k]
        beta[i] = acc / L[i][i]
    return beta, sigma2


def posterior_model(
    factor: tuple[list[list[float]], list[float], float],
    row: Sequence[float],
    predictors: Sequence[int],
    n: int,
    rng: np.random.Generator,
) -> PosteriorModel:
    """Parameter draw (:func:`draw_parameters`) for the regression of a
    target on the columns at positions ``predictors`` over the current
    (complete) data of ``n`` records, and the implied predictive law for
    the target cell of the record whose values are ``row``."""
    beta, sigma2 = draw_parameters(factor, n, rng)
    mean = beta[0]
    for c, b in zip(predictors, beta[1:]):
        mean += row[c] * b
    return PosteriorModel(beta, sigma2, mean)


def draw_truncated_posterior(
    model: PosteriorModel,
    interval: fm.Interval,
    rng: np.random.Generator,
) -> float:
    """Predictive draw conditioned on landing inside the interval; with
    zero variance, the mean clamped into it.  The scalar form of
    :func:`draw_targets`, at one raw word of ``rng``."""
    if interval.is_point():
        return interval.lower
    mean = model.predictive_mean
    if model.variance == 0.0:
        return interval.clamp(mean)
    shifted = fm.Interval(interval.lower - mean, interval.upper - mean)
    if shifted.is_point():  # a narrow interval far from the mean
        return mean + shifted.lower
    return mean + draw_ar_residual(math.sqrt(model.variance), shifted, rng)


def _checkpoint_row(
    data: DataMatrix, iteration: int, previous: dict, counts: list, abs_moves: list, exact: dict,
    systems: PairSystems,
) -> dict:
    per_variable = {}
    for j, name in enumerate(data.columns):
        cells = data.values[data.mask[:, j], j]
        if cells.size == 0:
            continue
        entry = {"mean": float(np.mean(cells)), "std": float(np.std(cells)), **counts[j]}
        entry["mean_abs_move"] = abs_moves[j] / counts[j]["accepted"] if counts[j]["accepted"] else 0.0
        entry["exact_fit"] = exact.get(j, False)
        if j in previous:
            entry["ks_vs_prev"] = metrics.ks_statistic(previous[j], cells)
        per_variable[name] = entry
        previous[j] = cells.copy()
    totals = {key: sum(c[key] for c in counts) for key in ("accepted", "fallbacks")}
    return {
        "iteration": iteration,
        "per_variable": per_variable,
        **totals,
        "pair_systems": {"compiled": len(systems.systems), "hits": systems.hits},
    }


def mcmc_refine(
    data: DataMatrix,
    edits: EditSystem,
    totals: Totals | None,
    config: McmcConfig | None = None,
) -> tuple[DataMatrix, list[dict]]:
    """Run the pair-swap chain in sweeps; returns the refined data and its
    trace.

    The input must pass :func:`pipeline.check_inputs` (even with zero
    iterations), be complete and reproduce the totals (its mask marks the
    imputed cells).  With zero iterations, or no column of two imputed
    cells, it comes back unchanged with an empty trace.  Every checkpoint
    checks the chain's values against the input ``data`` with
    :func:`pipeline.validate`.

    Each sweep of column j pairs j's imputed records at random (a record
    is left out when n_j is odd), draws j's model from a fresh Gram factor
    of the current values and updates the pairs up to the next
    checkpoint.  An update on a structural target
    (:func:`structural_targets`) or on a key that pins the target (``fm.CompiledInterval.pinned``) is the
    identity whatever the state, so it counts as accepted and ``pinned``
    and does nothing else; skipping it leaves the chain's kernel
    unchanged.  A structural target has no posterior draw, and its
    checkpoint ``exact_fit`` is true.  Every other update draws inside its
    interval and completes (:func:`update_pairs`), or, where the
    completion fails its check, keeps the pair's current values and counts
    as a fallback.  The current value need not lie in the interval.
    """
    if config is None:
        config = McmcConfig()
    check_inputs(data, edits, totals, config.predictors)
    if not data.is_complete():
        raise ValueError("refinement expects fully imputed data")
    # check_inputs has checked every record's edits.
    check_totals(data.values, data, totals)

    iterations = config.iterations if config.iterations is not None else 20 * int(data.mask.sum())
    checkpoint_every = config.checkpoint_every or max(1, iterations // 20)
    state = data.copy()
    trace: list[dict] = []
    # Only columns with two imputed rows are ever re-drawn.
    if iterations == 0 or not (state.mask.sum(axis=0) >= 2).any():
        return state, trace

    rng = np.random.default_rng(config.seed)
    columns, n, values = state.columns, state.n_records, state.values
    position = {name: j for j, name in enumerate(columns)}
    observed_cols = [name for j, name in enumerate(columns) if not state.mask[:, j].any()]
    records = {j: np.flatnonzero(state.mask[:, j]) for j in range(len(columns))}
    targets = [j for j, rows in records.items() if len(rows) >= 2]
    cumulative = list(itertools.accumulate(len(records[j]) * (len(records[j]) - 1) for j in targets))
    gram = gram_matrix(values, range(len(columns))).tolist()
    predictors = {}
    for j in targets:
        name = columns[j]
        if config.predictors is not None and name in config.predictors:
            names = list(config.predictors[name])
        else:
            names = [c for c in observed_cols if c != name] or [c for c in columns if c != name]
            names = [columns[c] for c in independent_predictors(gram, [position[c] for c in names])]
        if n <= len(names) + 1:  # before a factor of the too-small design finds it rank deficient
            raise InsufficientDataError(f"only {n} records for {len(names) + 1} regression parameters")
        predictors[j] = names
    systems = PairSystems(state, edits, totals)
    derive = fm.Derivations(systems.A, systems.is_eq, columns)
    structural = {position[name] for name in structural_targets(derive, {columns[j]: predictors[j] for j in targets})}
    # Model j regresses column j on design[j][:-1].
    design = {j: [position[p] for p in predictors[j]] + [j] for j in targets if j not in structural}
    previous_cells: dict[int, np.ndarray] = {}
    counts = [{"accepted": 0, "fallbacks": 0, "moved": 0, "pinned": 0} for _ in columns]
    abs_moves = [0.0] * len(columns)

    done = 0
    while done < iterations:
        checkpoint = min(iterations, (done // checkpoint_every + 1) * checkpoint_every)
        j = targets[bisect.bisect_right(cumulative, int(rng.integers(cumulative[-1])))]
        pairs = min(len(records[j]) // 2, checkpoint - done)
        done += pairs
        count = counts[j]
        if j in structural:
            # The equalities fix the target given its predictors: its
            # posterior is a point at the current value, and every update
            # is the identity whatever the state.
            count["accepted"] += pairs
            count["pinned"] += pairs
        else:
            drawn = rng.permutation(records[j])[: 2 * pairs]
            # A key that pins the target gives it a point the feasible
            # current value meets, and a total then pins the partner: the
            # update is the identity, so it builds, draws and writes nothing.
            groups = [group for group in systems.by_key(j, drawn[0::2], drawn[1::2]) if not group[0].compiled.pinned]
            live = sum(len(s) for _, s, _ in groups)
            count["accepted"] += pairs - live
            count["pinned"] += pairs - live
            if live:
                factor = gram_factor(gram_matrix(values, design[j]).tolist(), columns[j])
                beta, variance = draw_parameters(factor, n, rng)
                update = update_pairs(systems, values, groups, beta, variance, design[j][:-1], rng)
                ok = update.feasible
                accepted = int(np.count_nonzero(ok))
                count["accepted"] += accepted
                count["fallbacks"] += live - accepted
                s, new_s = update.s[ok], update.new_s[ok]
                move = np.abs(new_s[:, j] - values[s, j])
                count["moved"] += int(np.count_nonzero(move))
                abs_moves[j] += float(move.sum())
                values[s] = new_s
                values[update.t[ok]] = update.new_t[ok]

        if done == checkpoint:
            validate(values, data, edits, totals)
            exact = {
                j: j in structural or gram_factor(gram_matrix(values, design[j]).tolist(), columns[j])[2] == 0.0
                for j in targets
            }
            row = _checkpoint_row(state, done, previous_cells, counts, abs_moves, exact, systems)
            if not trace:
                row["predictors"] = {columns[j]: predictors[j] for j in targets}
            trace.append(row)
    return state, trace
