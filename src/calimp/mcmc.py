"""Pair-swap refinement of a fully imputed, fully consistent data set.

Each step picks two records sharing an imputed variable, treats all their
imputed cells as unknowns again, and takes the constraints those cells
must satisfy: the records' reduced edits plus, per variable with a known
total, the requirement that the pair's imputed values absorb exactly what
the rest of the column leaves over.  One cell is re-drawn from a
truncated posterior predictive distribution inside its admissible
interval, and the remaining unknowns are repaired through the equality
structure (keeping their current values wherever the constraints leave
slack).  Edits and totals therefore hold after every step.  The
derivation is compiled once per pair shape (:class:`PairSystems`), so a
step only evaluates it on the pair's constants.

No step does work proportional to the record count: the pair comes from
per-column index arrays built once, and each posterior is drawn from
sufficient statistics (one augmented Gram matrix over the columns the
models read, as nested lists) that a step updates in plain Python for the
two records it moved; checkpoints rebuild them.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import fm, metrics, regression
from .edits import DEFAULT_TOL, Edit, EditKind, EditSystem, ReducedSystem, reduce_system, system_matrices
from .errors import CalimpError, InfeasibleSystemError, InsufficientDataError, RankDeficiencyError
from .pipeline import DataMatrix, Totals, validate
from .residuals import draw_ar_residual

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
class McmcConfig:
    iterations: int | None = None  # default: 20 per imputed cell
    checkpoint_every: int | None = None  # default: iterations // 20
    seed: int = 0
    # Default predictor set per variable: the fully observed columns (all
    # other columns when nothing is fully observed).  With balance edits,
    # "all other columns" is an exact identity for every member of the
    # balance, which degenerates the posterior; fully observed predictors
    # avoid that trap.  A default set whose design is rank deficient on
    # the input loses its dependent columns (the rule of ``fit_ols``).
    predictors: Mapping[str, Sequence[str]] | None = None


class PosteriorModel(NamedTuple):
    """One draw from the regression posterior for a target cell.

    ``coefficients`` and ``variance`` are the drawn parameter values under
    the standard noninformative prior; the predictive distribution for the
    cell is normal with the stored mean and variance.
    """

    coefficients: list[float]
    variance: float
    predictive_mean: float
    predictive_variance: float


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


def select_pair(
    data: DataMatrix, rng: np.random.Generator, index: PairIndex | None = None
) -> tuple[int, int, str]:
    """Two distinct records sharing an imputed variable, uniform over all
    such (ordered pair, variable) combinations, in O(1).

    One integer draw numbers all combinations column by column: its
    column j has probability ∝ n_j (n_j - 1), its number of ordered pairs,
    and its offset within that column is the ordered pair (a, b) of imputed
    rows, b skipping a.  The first record returned gets the fresh draw.
    ``index`` is built from the mask when not given.
    """
    if index is None:
        index = PairIndex.build(data.mask)
    cumulative = index.cumulative
    k = _uniform_below(rng, cumulative[-1])
    j = bisect.bisect_right(cumulative, k)
    rows = index.rows[j]
    a, b = divmod(k - (cumulative[j - 1] if j else 0), len(rows) - 1)
    if b >= a:
        b += 1
    return rows[a], rows[b], data.columns[j]


def pair_constraint_system(
    data: DataMatrix,
    edits: EditSystem,
    totals: Totals | None,
    s: int,
    t: int,
    colsums: np.ndarray | None = None,
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
        reduced = reduce_system(edits, row, origin=rec)
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


def _bits(mask: int) -> list[int]:
    """The column indices set in a bit mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _KeySystem(NamedTuple):
    """A key's compiled pair system.  ``W`` maps the step vector
    ``[z, |z|]`` to the derivation's rows ``y`` (the first ``n``) and their
    gross magnitudes ``g``; ``unknowns`` holds the record (0 for s, 1 for
    t) and column of each of ``compiled.unknown``."""

    compiled: fm.CompiledInterval
    W: np.ndarray
    n: int
    unknowns: tuple[tuple[int, int], ...]


class PairSystems:
    """The constraint systems of a chain's record pairs, compiled once per
    key; a step evaluates its key's system with one matrix product and
    plain-Python loops over its few rows.

    The system is :func:`pair_constraint_system`'s, with the totals'
    equalities solved first.  A column imputed in both records that
    carries a total (the coupled columns, V_T) keeps one unknown ``s.v``;
    its partner is ``t.v = (R_v - w_s s.v) / w_t``, where R_v is what the
    rest of the column leaves the pair.  A column imputed in one record
    only and carrying a total is pinned by it and becomes a constant.
    Record t's rows are scaled by ``w_t / w_s > 0`` and its imputed
    columns without a total are rescaled by the same factor, so every
    coefficient is an edit coefficient and weights, values and totals
    enter only through the constants.  The key is therefore (target, V_T,
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
        totals = totals or {}
        self.total = [float(totals[name]) if name in totals else None for name in data.columns]
        self.with_total = sum(1 << j for j, t in enumerate(self.total) if t is not None)
        bit = [1 << j for j in range(len(data.columns))]
        self.pattern = [sum(b for b, m in zip(bit, row) if m) for row in data.mask.tolist()]
        # Per imputed pattern: its columns and the edits a completion is
        # checked against, those that read one of them.
        self.imputed = {
            mask: (_bits(mask), [row for row, touches in zip(self.rows, self.touches) if touches & mask])
            for mask in set(self.pattern)
        }
        self.weights = data.weights.tolist()
        self.systems: dict[tuple[int, int, int, int], _KeySystem] = {}
        self.compiled = 0
        self.hits = 0

    def _compile(self, j: int, coupled: int, free_s: int, free_t: int) -> _KeySystem:
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
        # Constants of the 2K rows from z = [x_s, (w_t/w_s) x_t, R / w_s, 1, w_t/w_s],
        # pinned columns holding their pinned values.
        in_s = np.array([(coupled | free_s) >> c & 1 for c in range(p)], dtype=bool)
        in_t = np.array([(coupled | free_t) >> c & 1 for c in range(p)], dtype=bool)
        M = np.zeros((2 * K, 3 * p + 2))
        M[:K, :p] = np.where(in_s, 0.0, A)
        M[:K, 3 * p] = self.b
        M[K:, p : 2 * p] = np.where(in_t, 0.0, A)
        M[K:, 2 * p : 3 * p] = np.where(is_coupled, A, 0.0)
        M[K:, 3 * p + 1] = self.b
        values, gross = compiled.record_rows()
        n, width = len(values), 3 * p + 2
        W = np.zeros((n + len(gross), 2 * width))
        W[:n, :width] = values @ M
        W[n:, width:] = gross @ np.abs(M)
        return _KeySystem(compiled, W, n, tuple(divmod(labels.index(v), p) for v in compiled.unknown))

    def pair(self, values: np.ndarray, colsums: list[float], s: int, t: int, j: int) -> PairStep:
        """The system of records ``s`` and ``t`` re-drawing column ``j`` of
        ``s``, at the current ``values`` and weighted column sums: its
        interval, or :class:`InfeasibleSystemError` where the derivation
        finds the system infeasible."""
        ps, pt, with_total = self.pattern[s], self.pattern[t], self.with_total
        key = (j, ps & pt & with_total, ps & ~with_total, pt & ~with_total)
        system = self.systems.get(key)
        if system is None:
            system = self.systems[key] = self._compile(*key)
            self.compiled += 1
        else:
            self.hits += 1
        return PairStep(self, system, values, colsums, s, t)


class PairStep:
    """One step's pair system: its constants, the target's interval, and
    :meth:`complete`.  ``old`` holds the two records' current rows and
    ``rows`` the same rows with pinned cells at their pinned values;
    ``imputed`` holds each record's imputed columns."""

    def __init__(self, systems: PairSystems, system: _KeySystem, values: np.ndarray, colsums: list[float],
                 s: int, t: int):
        ps, pt, with_total, total = systems.pattern[s], systems.pattern[t], systems.with_total, systems.total
        self.system = system
        self.w_s, self.w_t = w_s, w_t = systems.weights[s], systems.weights[t]
        self.old = row_s, row_t = values[s].tolist(), values[t].tolist()
        (imputed_s, checks_s), (imputed_t, checks_t) = systems.imputed[ps], systems.imputed[pt]
        self.imputed, self.checks = (imputed_s, imputed_t), (checks_s, checks_t)
        self.referenced = systems.referenced
        xs, xt = list(row_s), list(row_t)
        self.shares = shares = {}
        for c in _bits(ps & pt & with_total):
            shares[c] = total[c] - (colsums[c] - w_s * row_s[c] - w_t * row_t[c])
        for c in _bits((ps ^ pt) & with_total):  # pinned by their totals
            rest = total[c] - (colsums[c] - w_s * row_s[c] - w_t * row_t[c])
            if ps >> c & 1:
                xs[c] = (rest - w_t * row_t[c]) / w_s
            else:
                xt[c] = (rest - w_s * row_s[c]) / w_t
        self.rows = (xs, xt)
        self.ratio = ratio = w_t / w_s
        p = len(xs)
        z = xs + [ratio * v for v in xt] + [0.0] * p + [1.0, ratio]
        for c, share in shares.items():
            z[2 * p + c] = share / w_s
        out = (system.W @ np.array(z + [abs(v) for v in z])).tolist()
        self.y = out[: system.n]
        self.interval = system.compiled.record_interval(self.y, out[system.n :])

    def complete(self, value: float) -> tuple[list[float], list[float]]:
        """Both records' rows once the target holds ``value``: the other
        unknowns keep their current values clamped into their slices (in
        reverse elimination order), the rest follow through the equalities,
        the coupled partners and pinned cells through the totals.  A
        completion that misses an edit of either record or a pair total
        by more than :data:`DEFAULT_TOL` raises :class:`InfeasibleSystemError`."""
        system, ratio = self.system, self.ratio
        xs, xt = self.rows
        current = [xs[c] if role == 0 else ratio * xt[c] for role, c in system.unknowns]
        solved = system.compiled.complete(value, self.y, current)
        new_s, new_t = list(xs), list(xt)
        for (role, c), v, old in zip(system.unknowns, solved, current):
            if role == 0:
                new_s[c] = v
            elif v != old:  # a kept value stays bit for bit
                new_t[c] = v / ratio
        for c, share in self.shares.items():
            new_t[c] = (share - self.w_s * new_s[c]) / self.w_t
        # Each record's margin is that of violation_matrix: its largest magnitude
        # over the referenced columns, observed cells included (they enter sums).
        margins = [DEFAULT_TOL * max(1.0, *map(abs, self.referenced(row))) for row in (new_s, new_t)]
        for checks, row, margin in zip(self.checks, (new_s, new_t), margins):
            for b, terms, eq in checks:
                r = b
                for c, a in terms:
                    r += a * row[c]
                if abs(r) > margin if eq else r < -margin:
                    raise InfeasibleSystemError(f"completed pair violates an edit (residual {r:.6g})")
        margin = max(margins)
        for c, share in self.shares.items():  # pinned cells meet their totals by construction
            r = self.w_s * new_s[c] + self.w_t * new_t[c] - share
            if abs(r) > margin:
                raise InfeasibleSystemError(f"completed pair misses a column total (residual {r:.6g})")
        return new_s, new_t


def _augment(rows: np.ndarray) -> np.ndarray:
    """``rows`` with a leading column of ones."""
    out = np.ones((rows.shape[0], rows.shape[1] + 1))
    out[:, 1:] = rows
    return out


def gram_matrix(values: np.ndarray, columns: Sequence[int]) -> np.ndarray:
    """Augmented Gram matrix AᵀA of A = [1, values[:, columns]]; the last
    column is the target, the others its predictors."""
    A = _augment(values[:, list(columns)])
    return A.T @ A


def gram_factor(
    gram: np.ndarray | Sequence[Sequence[float]], target: str
) -> tuple[list[list[float]], list[float], float]:
    """Cholesky factor of an augmented Gram matrix [[ZᵀZ, Zᵀy], [yᵀZ, yᵀy]],
    given as an array or as rows of floats.

    Returns the lower factor L of ZᵀZ = LLᵀ (as rows), l = L⁻¹Zᵀy and
    rss = yᵀy - lᵀl, so the least-squares coefficients are L⁻ᵀl.  A design
    pivot at or below :data:`GRAM_RTOL` of its diagonal raises
    :class:`RankDeficiencyError`; an rss below that floor is an exact fit
    and comes back as 0.  Plain Python: on a block this small numpy's call
    overhead exceeds the arithmetic.  Only the lower triangle is read.
    """
    G = gram.tolist() if isinstance(gram, np.ndarray) else gram
    m = len(G) - 1
    L: list[list[float]] = []
    for i, g in enumerate(G):
        row: list[float] = []
        for k, lk in enumerate(L):
            acc = g[k]
            for q in range(k):
                acc -= row[q] * lk[q]
            row.append(acc / lk[k])
        pivot = g[i]
        for v in row:
            pivot -= v * v
        if not pivot > GRAM_RTOL * g[i]:
            if i < m:
                raise RankDeficiencyError(f"posterior fit for {target!r} is rank deficient")
            pivot = 0.0
        if i < m:
            row.append(math.sqrt(pivot))
            L.append(row)
    return L, row, pivot


def posterior_model(
    data: DataMatrix,
    target: str,
    predictor_names: Sequence[str],
    record: int,
    rng: np.random.Generator,
    gram: np.ndarray | Sequence[Sequence[float]] | None = None,
    row: Sequence[float] | None = None,
) -> PosteriorModel:
    """Parameter draw under the standard noninformative prior for the
    regression of ``target`` on ``predictor_names`` over the current
    (complete) data, and the implied predictive law for the target cell of
    ``record``.

    The fit comes from ``gram``, the augmented Gram matrix of
    ``[1, predictors, target]`` over all records, as an array or as rows
    of floats (built from ``data`` when not given), so its cost is O(p²) in
    the parameter count p.  ``row`` is the record's row of values when the
    caller holds it (read from ``data`` otherwise).  With the factor of
    :func:`gram_factor`, σ² = rss / χ²(n - p) and β = L⁻ᵀ(l + σε); an
    exact fit (rss 0) draws nothing and returns the least-squares
    coefficients with zero variance.
    """
    pred_idx = [data.column_index(p) for p in predictor_names]
    n, p1 = len(data.values), len(pred_idx) + 1
    if n <= p1:
        raise InsufficientDataError(f"only {n} records for {p1} regression parameters")
    if gram is None:
        gram = gram_matrix(data.values, [*pred_idx, data.column_index(target)])
    L, l, rss = gram_factor(gram, target)
    sigma2 = rss / float(rng.chisquare(n - p1)) if rss > 0 else 0.0
    if sigma2 > 0:
        sigma = math.sqrt(sigma2)
        l = [v + sigma * e for v, e in zip(l, rng.standard_normal(p1).tolist())]
    beta = l  # overwritten from the last entry down: β = L⁻ᵀ l
    for i in range(p1 - 1, -1, -1):
        acc = l[i]
        for k in range(i + 1, p1):
            acc -= L[k][i] * beta[k]
        beta[i] = acc / L[i][i]
    if row is None:
        row = data.values[record].tolist()
    mean = beta[0]
    for c, b in zip(pred_idx, beta[1:]):
        mean += row[c] * b
    return PosteriorModel(beta, sigma2, mean, sigma2)


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
    """Predictive draw conditioned on landing inside the interval."""
    if interval.is_point():
        return interval.lower
    sigma = math.sqrt(model.predictive_variance)
    shifted = fm.Interval(interval.lower - model.predictive_mean, interval.upper - model.predictive_mean)
    if sigma == 0.0:
        if not shifted.contains(0.0):
            return float(interval.clamp(model.predictive_mean))
        return model.predictive_mean
    if shifted.is_point():  # a narrow interval far from the mean
        return model.predictive_mean + shifted.lower
    draw = draw_ar_residual(sigma, shifted, rng)
    return model.predictive_mean + draw.value


def _checkpoint_row(
    data: DataMatrix, iteration: int, previous: dict, counts: dict, abs_moves: dict, systems: PairSystems
) -> dict:
    per_variable = {}
    for j, name in enumerate(data.columns):
        cells = data.values[data.mask[:, j], j]
        if cells.size == 0:
            continue
        entry = {"mean": float(np.mean(cells)), "std": float(np.std(cells)), **counts[name]}
        entry["mean_abs_move"] = abs_moves[name] / counts[name]["accepted"] if counts[name]["accepted"] else 0.0
        if name in previous:
            entry["ks_vs_prev"] = metrics.ks_statistic(previous[name], cells)
        per_variable[name] = entry
        previous[name] = cells.copy()
    totals = {key: sum(c[key] for c in counts.values()) for key in ("accepted", "fallbacks")}
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
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be positive")
    state = data.copy()
    trace: list[dict] = []
    if iterations == 0:
        return state, trace

    rng = np.random.default_rng(config.seed)
    colsums = (state.weights @ state.values).tolist()
    observed_cols = [
        name for j, name in enumerate(state.columns) if not state.mask[:, j].any()
    ]
    index = PairIndex.build(state.mask)
    # Only columns with two imputed rows are ever re-drawn.
    targets = [j for j, rows in enumerate(index.rows) if len(rows) >= 2]
    predictors = {}
    for name in (state.columns[j] for j in targets):
        if config.predictors is not None and name in config.predictors:
            predictors[name] = list(config.predictors[name])
        else:
            names = [c for c in observed_cols if c != name] or [c for c in state.columns if c != name]
            design = _augment(state.values[:, [state.column_index(c) for c in names]])
            if np.linalg.matrix_rank(design) < design.shape[1]:
                dependent = regression._dependent_columns(design, names)
                names = [c for c in names if c not in dependent]
            predictors[name] = names
    stats = PosteriorStats(
        state.values,
        {j: [state.column_index(p) for p in predictors[state.columns[j]]] + [j] for j in targets},
    )
    systems = PairSystems(state, edits, totals)
    weights, referenced = systems.weights, systems.referenced
    previous_cells: dict[str, np.ndarray] = {}
    counts = {name: {"accepted": 0, "fallbacks": 0, "moved": 0} for name in state.columns}
    abs_moves = dict.fromkeys(state.columns, 0.0)

    for iteration in range(1, iterations + 1):
        s, t, var = select_pair(state, rng, index)
        j = state.column_index(var)
        try:
            pair = systems.pair(state.values, colsums, s, t, j)
            interval = pair.interval
            row_s, row_t = pair.old
            current = row_s[j]
            # The edits hold to tol times each record's margin scale, so
            # a cell pinned by large constants may miss its point interval
            # by that much; measure the miss on the same scale.
            slack = DEFAULT_TOL * max(1.0, *map(abs, referenced(row_s)), *map(abs, referenced(row_t)))
            if not interval.lower - slack <= current <= interval.upper + slack:
                raise CalimpError(
                    f"step {iteration}: current value {current!r} of record {s}, "
                    f"variable {var!r} fell outside its admissible interval "
                    f"[{interval.lower}, {interval.upper}]"
                )
            model = posterior_model(state, var, predictors[var], s, rng, stats.block(j), row_s)
            value = draw_truncated_posterior(model, interval, rng)
            new_rows = pair.complete(value)
        except InfeasibleSystemError:
            # The current point is always feasible, so the step can keep it.
            counts[var]["fallbacks"] += 1
        else:
            for rec, old, new, cols in zip((s, t), pair.old, new_rows, pair.imputed):
                for col in cols:
                    delta = new[col] - old[col]
                    if delta != 0.0:
                        colsums[col] += weights[rec] * delta
                        state.values[rec, col] = new[col]
            stats.move(pair.old, new_rows)
            counts[var]["accepted"] += 1
            move = abs(new_rows[0][j] - current)
            if move:
                counts[var]["moved"] += 1
                abs_moves[var] += move

        if iteration % checkpoint_every == 0 or iteration == iterations:
            colsums = (state.weights @ state.values).tolist()
            stats.rebuild(state.values)
            validate(state.values, state, edits, totals)
            row = _checkpoint_row(state, iteration, previous_cells, counts, abs_moves, systems)
            if not trace:
                row["predictors"] = {state.columns[j]: predictors[state.columns[j]] for j in targets}
            trace.append(row)
    return state, trace
