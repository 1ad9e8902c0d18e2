"""Pair-swap refinement of a fully imputed, fully consistent data set.

Each step picks two records sharing an imputed variable, treats all their
imputed cells as unknowns again, and takes the constraints those cells
must satisfy: the records' reduced edits plus, per variable with a known
total, the requirement that the pair's imputed values keep their current
weighted sum.  One cell is re-drawn from a truncated posterior predictive
distribution inside its admissible interval, and the remaining unknowns
are repaired through the equality structure (keeping their current values
wherever the constraints leave slack).  A step checks feasibility once,
when it completes: both completed records against their edits, on
``violation_matrix``'s margin, and the pair's sums; a completion that
fails leaves the pair as it was.  Edits and totals therefore hold after
every step, and the totals' values enter none.  The derivation is
compiled once per pair shape (:class:`PairSystems`) into sparse rows, so
a step only evaluates the rows it reads on the pair's constants.

Most steps cannot move, and the target or the key alone says which.  A
target that the equality edits fix once its predictors are known
(:func:`structural_targets`) has a degenerate posterior, σ² = 0, and
every step on it returns the current value up to rounding; a key whose
equalities fix the target (``fm.CompiledInterval.pinned``) gives it a
point.  Either step is the identity whatever the state.  It is counted
as accepted and ``pinned`` and does nothing else: a structural target's
step does not even look its key up.  Every other step draws and
completes.

No step does work proportional to the record count: the pair comes from
per-column index arrays built once, the records' rows are Python lists
that checkpoints write back to the data, and each posterior is drawn from
sufficient statistics: one augmented Gram matrix over the columns the
models read, as nested lists, whose block a drawing step factors for its
model.  A step that moves cells updates the matrix in plain Python for
its two records; checkpoints rebuild it.  Between checkpoints a step
makes no numpy call but the generator's draws (and a key's first
compile).
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import fm, metrics
from .edits import DEFAULT_TOL, Edit, EditKind, EditSystem, ReducedSystem, record_scale, reduce_system, system_matrices
from .errors import CalimpError, InfeasibleSystemError, InsufficientDataError
from .pipeline import DataMatrix, Totals, check_inputs, check_integer, validate
from .regression import GRAM_RTOL, gram_factor, independent_predictors  # noqa: F401 (mcmc.GRAM_RTOL stays public)
from .residuals import draw_ar_residual


@dataclass(frozen=True)
class McmcConfig:
    iterations: int | None = None  # default: 20 per imputed cell
    checkpoint_every: int | None = None  # default: iterations // 20
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
    ``n_j (n_j - 1)`` over the columns; the mask never changes in a chain."""

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
    the incomplete block at the top; about a fifth of the cost of one
    scalar ``rng.integers`` draw."""
    limit = 2**64 - 2**64 % n
    while True:
        raw = rng.bit_generator.random_raw()
        if raw < limit:
            return raw % n


def select_pair(index: PairIndex, rng: np.random.Generator) -> tuple[int, int, int]:
    """Two distinct records sharing an imputed column, and the column's
    position, uniform over all such (ordered pair, column) combinations,
    in O(1).

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


def _bits(mask: int) -> list[int]:
    """The column indices set in a bit mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _terms(W: np.ndarray) -> list[list[tuple[int, float]]]:
    """Each row of ``W`` as its nonzero (position, coefficient) pairs."""
    return [[(i, a) for i, a in enumerate(row) if a] for row in W.tolist()]


def _dot(terms: list[tuple[int, float]], z: list[float]) -> float:
    """A sparse row's value at ``z``, summed in term order."""
    acc = 0.0
    for i, a in terms:
        acc += a * z[i]
    return acc


class _KeySystem(NamedTuple):
    """A key's compiled pair system as plain-Python sparse rows over the
    step vector ``z`` (see :class:`PairStep`).  Where ``compiled.pinned``,
    the key's equalities fix the target, so a step on it is the identity
    (see :func:`mcmc_refine`).  ``bounds`` holds each bound row's terms and
    target coefficient; ``completion`` the terms of the slice rows, then of
    the substitution constants, that only :meth:`PairStep.complete` reads.
    ``unknowns`` holds the record (0 for s, 1 for t) and column of each of
    ``compiled.unknown``."""

    compiled: fm.CompiledInterval
    bounds: list[tuple[list[tuple[int, float]], float]]
    completion: list[list[tuple[int, float]]]
    unknowns: tuple[tuple[int, int], ...]


class PairSystems:
    """The constraint systems of a chain's record pairs, compiled once per
    key into sparse rows that a step evaluates in plain Python.

    The system is :func:`pair_constraint_system`'s, with the totals'
    equalities solved first.  A column imputed in both records that
    carries a total (the coupled columns, V_T) keeps one unknown ``s.v``;
    its partner is ``t.v = (R_v - w_s s.v) / w_t``, where R_v is the pair's
    current weighted sum ``w_s x_s[v] + w_t x_t[v]``.  A column imputed in
    one record only and carrying a total keeps its current value, a
    constant.  Record t's rows are scaled by ``w_t / w_s > 0`` and its
    imputed columns without a total are rescaled by the same factor, so
    every coefficient is an edit coefficient and weights and values enter
    only through the constants.  The key is therefore (target, V_T,
    s's imputed columns without a total, t's imputed columns without a
    total).  A key's 2K x 2p coefficient matrix stacks s's edit rows, over
    columns 0..p-1, on t's, over columns p..2p-1 but with each coupled
    column negated into s's.  ``compiled`` and ``hits`` count the steps
    that compiled their key's system and those that found it.
    """

    def __init__(self, data: DataMatrix, edits: EditSystem, totals: Totals | None):
        self.columns = data.columns
        self.A, self.b, self.is_eq = system_matrices(edits, data.columns)
        self.rows = [
            (float(self.b[k]), [(int(c), float(self.A[k, c])) for c in np.flatnonzero(self.A[k])], bool(self.is_eq[k]))
            for k in range(len(self.b))
        ]
        self.touches = [sum(1 << c for c, _ in terms) for _, terms, _ in self.rows]
        # violation_matrix's margin scale: the columns some edit references
        # (the first twice, so that one column still comes back as a tuple;
        # with none, a 0).
        referenced = np.flatnonzero(self.A.any(axis=0)).tolist()
        self.referenced = operator.itemgetter(*referenced, *referenced[:1]) if referenced else lambda row: (0.0,)
        self.with_total = sum(1 << j for j, name in enumerate(data.columns) if name in (totals or {}))
        bit = [1 << j for j in range(len(data.columns))]
        self.pattern = [sum(b for b, m in zip(bit, row) if m) for row in data.mask.tolist()]
        # Per imputed pattern: the edits a completion is checked against,
        # those that read one of its columns.
        self.checked = {
            mask: [row for row, touches in zip(self.rows, self.touches) if touches & mask] for mask in set(self.pattern)
        }
        self.weights = data.weights.tolist()
        self.systems: dict[tuple[int, int, int, int], _KeySystem] = {}
        self.compiled = 0
        self.hits = 0

    def _compile(self, j: int, coupled: int, free_s: int, free_t: int) -> _KeySystem:
        """The system of the key (``j``, ``coupled``, ``free_s``,
        ``free_t``)."""
        A = self.A
        K, p = A.shape
        is_coupled = np.array([coupled >> c & 1 for c in range(p)], dtype=bool)
        # s's rows over columns 0..p-1, t's over p..2p-1 with each coupled
        # column negated into s's; 0.0 - A keeps absent entries at +0.0.
        pair_A = np.zeros((2 * K, 2 * p))
        pair_A[:K, :p] = A
        pair_A[K:, :p] = np.where(is_coupled, 0.0 - A, 0.0)
        pair_A[K:, p:] = np.where(is_coupled, 0.0, A)
        labels = [f"s.{v}" for v in self.columns] + [f"t.{v}" for v in self.columns]  # they order the unknowns
        unknown = [labels[c] for c in _bits(coupled | free_s)] + [labels[p + c] for c in _bits(free_t)]
        compiled = fm.compile_interval(pair_A, np.concatenate([self.is_eq, self.is_eq]), labels, unknown, labels[j])
        unknowns = tuple(divmod(labels.index(v), p) for v in compiled.unknown)
        # Constants of the 2K rows from z = [x_s, (w_t/w_s) x_t, R / w_s, 1, w_t/w_s].
        in_s = np.array([(coupled | free_s) >> c & 1 for c in range(p)], dtype=bool)
        in_t = np.array([(coupled | free_t) >> c & 1 for c in range(p)], dtype=bool)
        M = np.zeros((2 * K, 3 * p + 2))
        M[:K, :p] = np.where(in_s, 0.0, A)
        M[:K, 3 * p] = self.b
        M[K:, p : 2 * p] = np.where(in_t, 0.0, A)
        M[K:, 2 * p : 3 * p] = np.where(is_coupled, A, 0.0)
        M[K:, 3 * p + 1] = self.b
        return _KeySystem(
            compiled,
            list(zip(_terms(compiled.bound_comb @ M), compiled.bound_coef.tolist())),
            _terms(np.vstack([compiled.slice_comb, compiled.substitution_comb]) @ M),
            unknowns,
        )

    def system(self, s: int, t: int, j: int) -> _KeySystem:
        """The compiled system of records ``s`` and ``t`` re-drawing column
        ``j`` of ``s``: its key's, compiled when the key is first met."""
        ps, pt, with_total = self.pattern[s], self.pattern[t], self.with_total
        key = (j, ps & pt & with_total, ps & ~with_total, pt & ~with_total)
        system = self.systems.get(key)
        if system is None:
            system = self.systems[key] = self._compile(*key)
            self.compiled += 1
        else:
            self.hits += 1
        return system


class PairStep:
    """One step's pair system: the target's interval, computed on
    construction, and :meth:`complete`.  ``system`` is the key's
    (:meth:`PairSystems.system`) and ``rows[s]`` and ``rows[t]`` the
    records' current rows (lists, only read).

    The key's rows read the step vector ``z = [x_s, (w_t/w_s) x_t,
    R/w_s, 1, w_t/w_s]`` of the two records' current rows ``old``, with R
    the coupled columns' shares: the pair's current weighted sums, which
    the step conserves.  The interval evaluates only the bound rows; the
    completion rows and the completed rows wait until :meth:`complete`
    reads them.

    The step checks feasibility once, when it completes, on
    ``violation_matrix``'s margin, and nowhere else.  Bounds that cross,
    of the interval or of a slice, meet at their midpoint whatever the
    width: the current rows meet each edit only to that margin, and a
    derived bound sums several edits, so the current values may miss it
    by more.  A crossing that no completion can take fails the completion
    check.  The chain validates its state before the first step and keeps
    every step's completion only if it passes that check, so a derived
    row without variables could fail only by rounding; the key is compiled
    with such rows, and the step reads none."""

    def __init__(self, systems: PairSystems, system: _KeySystem, rows: Sequence[list[float]], s: int, t: int):
        row_s, row_t = rows[s], rows[t]
        ps, pt = systems.pattern[s], systems.pattern[t]
        self.systems, self.system = systems, system
        self.w_s, self.w_t = w_s, w_t = systems.weights[s], systems.weights[t]
        self.old = (row_s, row_t)
        self.patterns = (ps, pt)
        self.ratio = ratio = w_t / w_s
        p = len(row_s)
        self.z = z = row_s + [ratio * v for v in row_t] + [0.0] * p + [1.0, ratio]
        self.shares = shares = {}
        for c in _bits(ps & pt & systems.with_total):
            shares[c] = share = w_s * row_s[c] + w_t * row_t[c]
            z[2 * p + c] = share / w_s

        lower, upper = -math.inf, math.inf
        for terms, c in system.bounds:
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
        unknowns keep their current values clamped into their slices (in
        reverse elimination order), the rest follow through the equalities,
        the coupled partners through their shares.  A completion that
        misses an edit of either record by more than :data:`DEFAULT_TOL`
        times that record's largest magnitude over the referenced columns
        (``violation_matrix``'s margin, in plain Python), or a share by more
        than the larger of the two, raises :class:`InfeasibleSystemError`.
        This is the step's only feasibility check."""
        system, ratio, z = self.system, self.ratio, self.z
        row_s, row_t = self.old
        p = len(row_s)
        current = [z[role * p + c] for role, c in system.unknowns]
        solved = system.compiled.complete(value, [_dot(terms, z) for terms in system.completion], current)
        new_s, new_t = list(row_s), list(row_t)
        for (role, c), v, old in zip(system.unknowns, solved, current):
            if role == 0:
                new_s[c] = v
            elif v != old:  # a kept value stays bit for bit
                new_t[c] = v / ratio
        for c, share in self.shares.items():
            new_t[c] = (share - self.w_s * new_s[c]) / self.w_t
        # Each record's margin is that of violation_matrix: its largest magnitude
        # over the referenced columns, observed cells included (they enter sums).
        referenced = self.systems.referenced
        margins = [DEFAULT_TOL * max(1.0, *map(abs, referenced(row))) for row in (new_s, new_t)]
        ps, pt = self.patterns
        checks = (self.systems.checked[ps], self.systems.checked[pt])
        for rows, row, margin in zip(checks, (new_s, new_t), margins):
            for b, terms, eq in rows:
                r = b
                for c, a in terms:
                    r += a * row[c]
                if abs(r) > margin if eq else r < -margin:
                    raise InfeasibleSystemError(f"completed pair violates an edit (residual {r:.6g})")
        margin = max(margins)
        for c, share in self.shares.items():  # a one-record total column keeps its value
            r = self.w_s * new_s[c] + self.w_t * new_t[c] - share
            if abs(r) > margin:
                raise InfeasibleSystemError(f"completed pair misses its pair sum (residual {r:.6g})")
        return new_s, new_t


def gram_matrix(values: np.ndarray, columns: Sequence[int]) -> np.ndarray:
    """Augmented Gram matrix AᵀA of A = [1, values[:, columns]]; the last
    column is the target, the others its predictors."""
    A = np.ones((values.shape[0], len(columns) + 1))
    A[:, 1:] = values[:, list(columns)]
    return A.T @ A


def posterior_model(
    factor: tuple[list[list[float]], list[float], float],
    row: Sequence[float],
    predictors: Sequence[int],
    n: int,
    rng: np.random.Generator,
) -> PosteriorModel:
    """Parameter draw under the standard noninformative prior for the
    regression of a target on the columns at positions ``predictors``
    over the current (complete) data of ``n`` records, and the implied
    predictive law for the target cell of the record whose values are
    ``row``.

    The fit comes from ``factor``, :func:`gram_factor` of the augmented
    Gram matrix of ``[1, predictors, target]`` over all records, so its
    cost is O(p²) in the parameter count p: σ² = rss / χ²(n - p) and
    β = L⁻ᵀ(l + σε); an exact fit (rss 0) draws nothing and returns the
    least-squares coefficients with zero variance.  ``factor`` is only read.
    """
    p1 = len(predictors) + 1
    if n <= p1:
        raise InsufficientDataError(f"only {n} records for {p1} regression parameters")
    L, l, rss = factor
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
    mean = beta[0]
    for c, b in zip(predictors, beta[1:]):
        mean += row[c] * b
    return PosteriorModel(beta, sigma2, mean)


class PosteriorStats:
    """Sufficient statistics of every posterior model in a chain: one
    augmented Gram matrix over ``[1, every column some model reads]``, as
    nested lists.  Model j reads its block ``[1, predictors, target]``
    through ``index[j]``, a getter of the block's rows and columns fixed at
    build time.

    A step that moves cells replaces the old rows of its two records by
    their new rows (a rank-one downdate and update each) in plain Python;
    :meth:`rebuild` recomputes the matrix from the values, which bounds the
    rounding the updates accumulate.
    """

    def __init__(self, values: np.ndarray, design: Mapping[int, Sequence[int]]):
        # design: target column -> its predictor columns then itself
        self.columns = {j: list(cols) for j, cols in design.items()}
        self.read = sorted({c for cols in self.columns.values() for c in cols})
        position = {c: k + 1 for k, c in enumerate(self.read)}
        # A block has at least two indices (1 and the target), so its getter
        # returns a tuple of rows and, from each row, a tuple of entries.
        self.index = {j: operator.itemgetter(0, *(position[c] for c in cols)) for j, cols in self.columns.items()}
        self.rebuild(values)

    def rebuild(self, values: np.ndarray) -> None:
        self.gram = gram_matrix(values, self.read).tolist()

    def block(self, j: int) -> list[tuple[float, ...]]:
        """Model j's augmented Gram matrix of ``[1, predictors, target]``."""
        index = self.index[j]
        return [index(row) for row in index(self.gram)]

    def move(self, old_rows: Sequence[list[float]], new_rows: Sequence[list[float]]) -> None:
        """Swap ``old_rows`` for ``new_rows`` (both records' full rows, as
        lists): each entry of the upper triangle takes the two rows' change
        and is mirrored into the lower.  Nothing happens unless a read
        column changed."""
        read, gram = self.read, self.gram
        (old_s, old_t), (new_s, new_t) = old_rows, new_rows
        old_s, old_t = [1.0, *map(old_s.__getitem__, read)], [1.0, *map(old_t.__getitem__, read)]
        new_s, new_t = [1.0, *map(new_s.__getitem__, read)], [1.0, *map(new_t.__getitem__, read)]
        if new_s == old_s and new_t == old_t:
            return
        for i, (g, a, b, c, d) in enumerate(zip(gram, new_s, new_t, old_s, old_t)):
            for k in range(i, len(g)):
                g[k] += (a * new_s[k] + b * new_t[k]) - (c * old_s[k] + d * old_t[k])
                gram[k][i] = g[k]


def draw_truncated_posterior(
    model: PosteriorModel,
    interval: fm.Interval,
    rng: np.random.Generator,
) -> float:
    """Predictive draw conditioned on landing inside the interval; with
    zero variance, the mean clamped into it."""
    if interval.is_point():
        return interval.lower
    mean = model.predictive_mean
    if model.variance == 0.0:
        return interval.clamp(mean)
    shifted = fm.Interval(interval.lower - mean, interval.upper - mean)
    if shifted.is_point():  # a narrow interval far from the mean
        return mean + shifted.lower
    return mean + draw_ar_residual(math.sqrt(model.variance), shifted, rng)


def structural_targets(
    edits: EditSystem, columns: Sequence[str], predictors: Mapping[int, Sequence[str]]
) -> set[int]:
    """The targets (positions in ``columns``) that the equality edits fix
    once their predictors are known: with every column outside
    ``predictors[j]`` unknown, eliminating the equalities leaves one in
    target j only (``fm.CompiledInterval.pinned``, the rank condition of
    a pinned key).  That may take a combination of equalities.  Every
    record meets the equalities, so such a target's regression on its
    predictors is exact: σ² = 0, and a step on it returns the current
    value up to rounding.  Only equalities are read: a target that two inequalities
    squeeze to a point (``x >= P``, ``x <= P``) is not structural."""
    A, _, is_eq = system_matrices(edits, columns)
    E, eq = A[is_eq], is_eq[is_eq]
    return {
        j
        for j, names in predictors.items()
        if fm.compile_interval(E, eq, columns, [c for c in columns if c not in names], columns[j]).pinned
    }


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
        "pair_systems": {"compiled": systems.compiled, "hits": systems.hits},
    }


def mcmc_refine(
    data: DataMatrix,
    edits: EditSystem,
    totals: Totals | None,
    config: McmcConfig | None = None,
) -> tuple[DataMatrix, list[dict]]:
    """Run the pair-swap chain; returns the refined data and its trace.

    The input must pass :func:`pipeline.check_inputs` (even with zero
    iterations), be complete and reproduce the totals (its mask marks the
    imputed cells).  With zero iterations, or no column of two imputed
    cells, it comes back unchanged with an empty trace.  Consistency is
    revalidated at every checkpoint.

    A step on a structural target (:func:`structural_targets`) or on a key
    that pins the target (``fm.CompiledInterval.pinned``) is the identity
    whatever the state, so it counts as accepted and ``pinned`` and does
    nothing else; skipping it leaves the chain's kernel unchanged.  A
    structural target has no posterior statistics, and its checkpoint
    ``exact_fit`` is true.  Every other step draws inside its interval and
    completes, or, where the completion fails :meth:`PairStep.complete`'s
    check, keeps the current values and counts as a fallback.  The current
    value need not lie in the interval (see :class:`PairStep`).
    """
    if config is None:
        config = McmcConfig()
    check_inputs(data, edits, totals, config.predictors)
    if not data.is_complete():
        raise ValueError("refinement expects fully imputed data")
    validate(data.values, data, edits, totals)

    iterations = config.iterations if config.iterations is not None else 20 * int(data.mask.sum())
    checkpoint_every = config.checkpoint_every or max(1, iterations // 20)
    state = data.copy()
    trace: list[dict] = []
    # Only columns with two imputed rows are ever re-drawn.
    if iterations == 0 or not (state.mask.sum(axis=0) >= 2).any():
        return state, trace

    rng = np.random.default_rng(config.seed)
    columns, n = state.columns, state.n_records
    position = {name: j for j, name in enumerate(columns)}
    observed_cols = [name for j, name in enumerate(columns) if not state.mask[:, j].any()]
    index = PairIndex.build(state.mask)
    targets = [j for j, rows in enumerate(index.rows) if len(rows) >= 2]
    gram = gram_matrix(state.values, range(len(columns))).tolist()
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
    structural = structural_targets(edits, columns, predictors)
    stats = PosteriorStats(
        state.values, {j: [position[p] for p in predictors[j]] + [j] for j in targets if j not in structural}
    )
    systems = PairSystems(state, edits, totals)
    # The rows of the records with an imputed cell, as lists: steps read and
    # replace these, and each checkpoint writes the moved ones back.
    rows: list[list[float] | None] = [None] * n
    imputed = np.flatnonzero(state.mask.any(axis=1))
    for rec, row in zip(imputed.tolist(), state.values[imputed].tolist()):
        rows[rec] = row
    moved: set[int] = set()
    previous_cells: dict[int, np.ndarray] = {}
    counts = [{"accepted": 0, "fallbacks": 0, "moved": 0, "pinned": 0} for _ in columns]
    abs_moves = [0.0] * len(columns)

    for iteration in range(1, iterations + 1):
        s, t, j = select_pair(index, rng)
        if j in structural or (system := systems.system(s, t, j)).compiled.pinned:
            # The equalities fix the target given its predictors (its
            # posterior is a point at the current value) or the key's do (its
            # interval is a point the feasible current value meets, and a
            # total then pins the partner): the step is the identity whatever
            # the state, so it builds, draws and writes nothing.
            counts[j]["accepted"] += 1
            counts[j]["pinned"] += 1
        else:
            try:
                pair = PairStep(systems, system, rows, s, t)
                row_s = rows[s]
                current = row_s[j]
                factor = gram_factor(stats.block(j), columns[j])
                model = posterior_model(factor, row_s, stats.columns[j][:-1], n, rng)
                new_rows = pair.complete(draw_truncated_posterior(model, pair.interval, rng))
            except InfeasibleSystemError:
                # The current point is always feasible, so the step can keep it.
                counts[j]["fallbacks"] += 1
            else:
                counts[j]["accepted"] += 1
                rows[s], rows[t] = new_rows
                moved.update((s, t))
                stats.move(pair.old, new_rows)
                move = abs(new_rows[0][j] - current)
                if move:
                    counts[j]["moved"] += 1
                    abs_moves[j] += move

        if iteration % checkpoint_every == 0 or iteration == iterations:
            if moved:
                records = list(moved)
                state.values[records] = [rows[rec] for rec in records]
                moved.clear()
            stats.rebuild(state.values)
            validate(state.values, state, edits, totals)
            exact = {j: j in structural or gram_factor(stats.block(j), columns[j])[2] == 0.0 for j in targets}
            row = _checkpoint_row(state, iteration, previous_cells, counts, abs_moves, exact, systems)
            if not trace:
                row["predictors"] = {columns[j]: predictors[j] for j in targets}
            trace.append(row)
    return state, trace
