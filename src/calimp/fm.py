"""Interval derivation for one missing cell by constraint projection.

Equalities of a record's reduced edit system are removed by substitution,
the remaining inequalities are projected variable by variable (combining
every lower/upper bound pair on the eliminated variable), and the result
is read off as an admissible interval for the target cell.  Every value
inside the interval extends to a full assignment satisfying the original
system, which :func:`back_substitute` reconstructs.

:func:`compile_interval` performs the same derivation once for every
record sharing an unknown-variable pattern and evaluates it with array
operations; the per-record functions remain for record-pair systems and
as its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Collection, Mapping, Sequence

import numpy as np

from .edits import COEFF_EPS, DEFAULT_TOL, Edit, EditKind, ReducedSystem, violated
from .errors import InfeasibleRecordError, InfeasibleSystemError

NEG_INF = float("-inf")
POS_INF = float("inf")


@dataclass(frozen=True)
class Interval:
    """Closed admissible range for one value; either side may be infinite."""

    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"empty interval [{self.lower}, {self.upper}]")

    def contains(self, x: float, tol: float = DEFAULT_TOL) -> bool:
        slack = tol * max(1.0, abs(x), abs(self.lower) if math.isfinite(self.lower) else 0.0,
                          abs(self.upper) if math.isfinite(self.upper) else 0.0)
        return self.lower - slack <= x <= self.upper + slack

    def clamp(self, x: float) -> float:
        return min(max(x, self.lower), self.upper)

    def is_point(self) -> bool:
        return self.lower == self.upper

    def is_bounded(self) -> bool:
        return math.isfinite(self.lower) and math.isfinite(self.upper)

    def midpoint(self) -> float:
        if not self.is_bounded():
            raise ValueError("midpoint of an unbounded interval")
        return 0.5 * (self.lower + self.upper)


UNBOUNDED = Interval(NEG_INF, POS_INF)


@dataclass(frozen=True)
class LinExpr:
    """Affine expression ``const + sum coeffs[v] * v`` over remaining variables."""

    coeffs: dict[str, float]
    const: float

    def evaluate(self, values: Mapping[str, float]) -> float:
        return math.fsum(c * values[v] for v, c in self.coeffs.items()) + self.const

    def variables(self) -> tuple[str, ...]:
        return tuple(self.coeffs)


#: One equality elimination: the removed variable and its expression in the
#: variables still present at that point.
SubstitutionStack = list[tuple[str, LinExpr]]


@dataclass
class EliminationRecord:
    """Everything needed to complete a record after the target is assigned.

    ``eq_subs`` replays equality eliminations; ``fm_steps`` stores, for each
    projected variable, the inequality system as it stood just before the
    variable was projected out, so its one-dimensional range can be
    recovered once later-eliminated variables are known.
    """

    target: str
    interval: Interval
    eq_subs: SubstitutionStack
    fm_steps: list[tuple[str, list[Edit]]]
    system: tuple[Edit, ...]


ValueRule = Callable[[str, Interval], float]


def default_value_rule(var: str, interval: Interval) -> float:
    """Midpoint for bounded ranges, one unit inside a half-open one, else 0."""
    lo, hi = interval.lower, interval.upper
    if math.isfinite(lo) and math.isfinite(hi):
        return 0.5 * (lo + hi)
    if math.isfinite(lo):
        return lo + 1.0
    if math.isfinite(hi):
        return hi - 1.0
    return 0.0


def _clean_coeffs(coeffs: dict[str, float]) -> dict[str, float]:
    if not coeffs:
        return coeffs
    m = max(abs(c) for c in coeffs.values())
    if m == 0.0:
        return {}
    floor = COEFF_EPS * max(1.0, m)
    return {v: c for v, c in coeffs.items() if abs(c) > floor}


def _substitute(edit: Edit, var: str, expr: LinExpr) -> tuple[dict[str, float], float, float]:
    """Replace ``var`` by ``expr`` in an edit; returns coeffs, const, gross magnitude."""
    cp = edit.coeffs[var]
    coeffs = {v: c for v, c in edit.coeffs.items() if v != var}
    gross = abs(edit.constant) + sum(abs(c) for c in coeffs.values())
    for v, c in expr.coeffs.items():
        coeffs[v] = coeffs.get(v, 0.0) + cp * c
        gross += abs(cp * c)
    const = edit.constant + cp * expr.const
    gross += abs(cp * expr.const)
    return _clean_coeffs(coeffs), const, gross


def _constant_row_ok(const: float, gross: float, kind: EditKind, tol: float) -> bool:
    bound = tol * max(1.0, gross)
    if kind is EditKind.EQUALITY:
        return abs(const) <= bound
    return const >= -bound


def eliminate_equalities(
    edits: Sequence[Edit],
    keep: str | None,
    tol: float = DEFAULT_TOL,
) -> tuple[list[Edit], SubstitutionStack]:
    """Remove every equality by substitution, sparing ``keep``.

    Each equality consumes the variable with the largest-magnitude
    coefficient other than ``keep`` (ties broken by name).  An equality
    whose only variable is ``keep`` is turned into the pair of inequalities
    pinning it.  Returns the inequality-only system and the substitution
    stack in elimination order.
    """
    work = list(edits)
    stack: SubstitutionStack = []
    while True:
        eq_pos = next((i for i, e in enumerate(work) if e.kind is EditKind.EQUALITY), None)
        if eq_pos is None:
            return work, stack
        eq = work.pop(eq_pos)
        candidates = [(v, c) for v, c in eq.coeffs.items() if v != keep]
        if not candidates:
            # Only the kept variable remains: pin it with a bound pair.
            c = eq.coeffs[keep]
            work.insert(eq_pos, Edit(dict(eq.coeffs), eq.constant, EditKind.INEQUALITY))
            work.insert(eq_pos + 1, Edit({keep: -c}, -eq.constant, EditKind.INEQUALITY))
            continue
        pivot, cp = min(candidates, key=lambda item: (-abs(item[1]), item[0]))
        expr = LinExpr(
            {v: -c / cp for v, c in eq.coeffs.items() if v != pivot},
            -eq.constant / cp,
        )
        replaced: list[Edit] = []
        for other in work:
            if pivot not in other.coeffs:
                replaced.append(other)
                continue
            coeffs, const, gross = _substitute(other, pivot, expr)
            if coeffs:
                replaced.append(Edit(coeffs, const, other.kind))
            elif not _constant_row_ok(const, gross, other.kind, tol):
                raise InfeasibleSystemError(
                    f"substituting {pivot} makes edit infeasible (residual {const:.6g})",
                    witness=(eq, other),
                )
        work = replaced
        stack.append((pivot, expr))


def _normalized(edit: Edit) -> Edit:
    m = max(abs(c) for c in edit.coeffs.values())
    if m == 1.0:
        return edit
    return Edit({v: c / m for v, c in edit.coeffs.items()}, edit.constant / m, edit.kind)


def _dedupe(edits: list[Edit]) -> list[Edit]:
    """Fold parallel rows, keeping the tighter of each half-plane pair.

    Rows are normalized to leading magnitude one first, so rows with the
    same coefficient signature are positive multiples of each other and
    the smaller constant is the binding one.
    """
    out: list[Edit] = []
    by_signature: dict[tuple, int] = {}
    for edit in edits:
        norm = _normalized(edit)
        sig = tuple(sorted((v, round(c, 12)) for v, c in norm.coeffs.items()))
        if sig in by_signature:
            k = by_signature[sig]
            if norm.constant < out[k].constant:
                out[k] = norm
            continue
        by_signature[sig] = len(out)
        out.append(norm)
    return out


def fourier_motzkin_eliminate(
    edits: Sequence[Edit],
    var: str,
    tol: float = DEFAULT_TOL,
) -> list[Edit]:
    """Project an inequality-only system onto the variables other than ``var``.

    Every (lower bound, upper bound) pair on ``var`` combines into one
    derived inequality; rows not involving ``var`` pass through.  Derived
    constant rows that fail are reported as infeasible.
    """
    lowers: list[Edit] = []
    uppers: list[Edit] = []
    rest: list[Edit] = []
    for edit in edits:
        if edit.kind is not EditKind.INEQUALITY:
            raise ValueError("fourier_motzkin_eliminate expects an inequality-only system")
        c = edit.coeffs.get(var, 0.0)
        if c > 0:
            lowers.append(edit)
        elif c < 0:
            uppers.append(edit)
        else:
            rest.append(edit)
    out = list(rest)
    for lo in lowers:
        cl = lo.coeffs[var]
        for up in uppers:
            cu = up.coeffs[var]
            m_lo, m_up = -cu, cl  # both positive
            coeffs: dict[str, float] = {}
            gross = 0.0
            for v, c in lo.coeffs.items():
                if v != var:
                    coeffs[v] = coeffs.get(v, 0.0) + m_lo * c
                    gross += abs(m_lo * c)
            for v, c in up.coeffs.items():
                if v != var:
                    coeffs[v] = coeffs.get(v, 0.0) + m_up * c
                    gross += abs(m_up * c)
            const = m_lo * lo.constant + m_up * up.constant
            gross += abs(m_lo * lo.constant) + abs(m_up * up.constant)
            coeffs = _clean_coeffs(coeffs)
            if not coeffs:
                if not _constant_row_ok(const, gross, EditKind.INEQUALITY, tol):
                    raise InfeasibleSystemError(
                        f"eliminating {var} derives the contradiction 0 >= {-const:.6g}",
                        witness=(lo, up),
                    )
                continue
            out.append(Edit(coeffs, const, EditKind.INEQUALITY))
    return _dedupe(out)


def _elimination_order(edits: Sequence[Edit], target: str) -> str | None:
    """Next variable to project: fewest appearances, ties by name."""
    counts: dict[str, int] = {}
    for edit in edits:
        for v in edit.coeffs:
            if v != target:
                counts[v] = counts.get(v, 0) + 1
    if not counts:
        return None
    return min(counts, key=lambda v: (counts[v], v))


def admissible_interval(
    system: ReducedSystem | Sequence[Edit],
    target: str,
    tol: float = DEFAULT_TOL,
) -> tuple[Interval, EliminationRecord]:
    """Exact feasible range of ``target`` under a reduced edit system.

    Returns the interval together with the elimination record needed to
    complete the remaining variables afterwards.  A target not mentioned by
    any edit comes back unbounded.
    """
    edits0 = tuple(system.edits) if isinstance(system, ReducedSystem) else tuple(system)
    ineqs, eq_subs = eliminate_equalities(edits0, keep=target, tol=tol)
    ineqs = _dedupe(ineqs)
    fm_steps: list[tuple[str, list[Edit]]] = []
    while True:
        var = _elimination_order(ineqs, target)
        if var is None:
            break
        fm_steps.append((var, list(ineqs)))
        ineqs = fourier_motzkin_eliminate(ineqs, var, tol=tol)

    lower, upper = NEG_INF, POS_INF
    lo_witness = hi_witness = None
    for edit in ineqs:
        if not edit.coeffs:  # pragma: no cover - constant rows are checked on creation
            continue
        c = edit.coeffs[target]
        bound = -edit.constant / c
        if c > 0:
            if bound > lower:
                lower, lo_witness = bound, edit
        else:
            if bound < upper:
                upper, hi_witness = bound, edit
    if lower > upper:
        slack = tol * max(1.0, abs(lower), abs(upper))
        if lower - upper <= slack:
            mid = 0.5 * (lower + upper)
            lower = upper = mid
        else:
            raise InfeasibleSystemError(
                f"no admissible value for {target}: requires >= {lower:.6g} and <= {upper:.6g}",
                witness=(lo_witness, hi_witness),
            )
    interval = Interval(lower, upper)
    record = EliminationRecord(
        target=target,
        interval=interval,
        eq_subs=eq_subs,
        fm_steps=fm_steps,
        system=edits0,
    )
    return interval, record


def _one_dim_interval(edits: Sequence[Edit], var: str, values: Mapping[str, float], tol: float) -> Interval:
    lower, upper = NEG_INF, POS_INF
    for edit in edits:
        if var not in edit.coeffs:
            continue
        c = edit.coeffs[var]
        rest = math.fsum(cc * values[v] for v, cc in edit.coeffs.items() if v != var) + edit.constant
        bound = -rest / c
        if c > 0:
            lower = max(lower, bound)
        else:
            upper = min(upper, bound)
    if lower > upper:
        slack = tol * max(1.0, abs(lower), abs(upper))
        if lower - upper > slack:
            raise InfeasibleSystemError(
                f"back-substitution range for {var} is empty: [{lower:.6g}, {upper:.6g}]"
            )
        lower = upper = 0.5 * (lower + upper)
    return Interval(lower, upper)


def back_substitute(
    record: EliminationRecord,
    assigned: Mapping[str, float],
    value_rule: ValueRule | None = None,
    tol: float = DEFAULT_TOL,
) -> dict[str, float]:
    """Complete a record from an assigned target value.

    Projected variables are resolved in reverse elimination order: each gets
    its now one-dimensional admissible range and the value rule picks a
    point in it (midpoint by default; samplers substitute their own rule).
    Equality-eliminated variables then follow exactly.  The full assignment
    is validated against the original system before returning.
    """
    if record.target not in assigned:
        raise ValueError(f"assigned values must include the target {record.target!r}")
    if not record.interval.contains(assigned[record.target], tol):
        raise ValueError(
            f"value {assigned[record.target]!r} for {record.target!r} lies outside "
            f"the admissible interval [{record.interval.lower}, {record.interval.upper}]"
        )
    rule = value_rule or default_value_rule
    values = dict(assigned)
    for var, pre_system in reversed(record.fm_steps):
        if var in values:
            continue
        interval = _one_dim_interval(pre_system, var, values, tol)
        values[var] = interval.clamp(rule(var, interval))
    for var, expr in reversed(record.eq_subs):
        # A variable can cancel out of every inequality and resurface only
        # here; such variables are unconstrained and get the free-value rule.
        for v in expr.coeffs:
            if v not in values:
                values[v] = rule(v, UNBOUNDED)
        if var not in values:
            values[var] = expr.evaluate(values)

    scale = max(1.0, max((abs(v) for v in values.values()), default=0.0))
    for edit in record.system:
        if not edit.is_satisfied(values, tol, scale):
            raise InfeasibleSystemError(
                f"back-substituted record violates an original edit (residual {edit.residual(values):.6g})",
                witness=edit,
            )
    return values


def resolve_companions(
    record: EliminationRecord,
    assigned: Mapping[str, float],
) -> dict[str, float]:
    """Values forced through the equality stack by what is assigned so far.

    Walks the substitution stack in reverse and evaluates every expression
    whose variables are already known; anything depending on a variable that
    is still free is left out.
    """
    known = dict(assigned)
    resolved: dict[str, float] = {}
    for var, expr in reversed(record.eq_subs):
        if var in known:
            continue
        if all(v in known for v in expr.coeffs):
            value = expr.evaluate(known)
            known[var] = value
            resolved[var] = value
    return resolved


# ---------------------------------------------------------------------------
# Compiled derivation for all records sharing one unknown-variable pattern

class _Row:
    """A derived row: its coefficients over the unknowns and the alternative
    combinations of the original edits giving its constant.

    Parallel rows share one signature; :func:`_dedupe` keeps the tighter of
    them per record, which depends on the record's constants, so a compiled
    row keeps every distinct combination and the record-wise extreme is
    taken when bounds are read off.
    """

    __slots__ = ("coeffs", "combs", "kind")

    def __init__(self, coeffs: dict[str, float], combs: np.ndarray, kind: EditKind):
        self.coeffs = coeffs
        self.combs = combs
        self.kind = kind


def _merge_parallel(rows: list[_Row]) -> list[_Row]:
    """Compiled counterpart of :func:`_dedupe`: normalize, then pool the
    combinations of rows with one coefficient signature."""
    out: list[_Row] = []
    by_signature: dict[tuple, int] = {}
    for row in rows:
        m = max(abs(c) for c in row.coeffs.values())
        coeffs = row.coeffs if m == 1.0 else {v: c / m for v, c in row.coeffs.items()}
        combs = row.combs if m == 1.0 else row.combs / m
        sig = tuple(sorted((v, round(c, 12)) for v, c in coeffs.items()))
        if sig in by_signature:
            k = by_signature[sig]
            out[k].combs = np.concatenate([out[k].combs, combs])
        else:
            by_signature[sig] = len(out)
            out.append(_Row(coeffs, combs, EditKind.INEQUALITY))
    for row in out:
        if len(row.combs) > 1:
            # Keyed like _dedupe's signatures; adding 0.0 folds -0.0 into 0.0.
            distinct: dict[bytes, np.ndarray] = {}
            for comb in row.combs:
                distinct.setdefault((np.round(comb, 12) + 0.0).tobytes(), comb)
            row.combs = np.array(list(distinct.values()))
    return out


@dataclass(frozen=True)
class CompiledInterval:
    """:func:`admissible_interval` for every record with one unknown pattern.

    Every symbolic choice of the derivation -- equality pivots, the
    projection pairings, coefficient cleaning, duplicate signatures and
    the elimination order -- depends only on which variables are unknown.
    Compiling replays them once and keeps each derived row as a
    combination of the original edits (one column per edit; equality
    columns may carry either sign, inequality columns are nonnegative).
    A record's derived constants are then those combinations applied to
    its reduced constants ``d``, the edit constants with its known values
    folded in (:func:`calimp.edits.reduced_constants`).
    """

    target: str
    edits: tuple[Edit, ...]
    #: Edits with no unknown variable (each record's reduction check) and
    #: which of them are equalities.
    known: np.ndarray
    known_eq: np.ndarray
    #: Target coefficient and edit combination of each bound row.
    bound_coef: np.ndarray
    bound_comb: np.ndarray
    #: Derived rows left without variables, with their equality flag and
    #: the message raised when a record violates one.
    check_comb: np.ndarray
    check_eq: np.ndarray
    check_reason: tuple[str, ...]
    #: Equality-forced companions as an affine map of the target value and
    #: the reduced constants: ``value = target_coef * x + comb . d``.
    companion_vars: tuple[str, ...]
    companion_target: np.ndarray
    companion_comb: np.ndarray

    def _derive(self, D: np.ndarray, G: np.ndarray, tol: float):
        check_gross = G @ np.abs(self.check_comb).T
        known_bad = violated(D[:, self.known], self.known_eq, tol * np.maximum(1.0, G[:, self.known]))
        check_bad = violated(D @ self.check_comb.T, self.check_eq, tol * np.maximum(1.0, check_gross))
        bounds = -(D @ self.bound_comb.T) / self.bound_coef
        lower = np.max(bounds, axis=1, where=self.bound_coef > 0, initial=NEG_INF)
        upper = np.min(bounds, axis=1, where=self.bound_coef < 0, initial=POS_INF)
        crossed = np.flatnonzero(lower > upper)
        lo, hi = lower[crossed], upper[crossed]
        snap = lo - hi <= tol * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        lower[crossed[snap]] = upper[crossed[snap]] = 0.5 * (lo[snap] + hi[snap])
        empty = np.zeros(D.shape[0], dtype=bool)
        empty[crossed[~snap]] = True
        return known_bad, check_bad, bounds, lower, upper, empty

    def evaluate(self, D: np.ndarray, G: np.ndarray, tol: float = DEFAULT_TOL):
        """Bounds for records with reduced constants ``D`` and gross
        magnitudes ``G`` (records x edits), plus a flag per record for
        which the per-record derivation raises (see :meth:`infeasibility`)."""
        known_bad, check_bad, _, lower, upper, empty = self._derive(D, G, tol)
        return lower, upper, known_bad.any(axis=1) | check_bad.any(axis=1) | empty

    def infeasibility(self, d: np.ndarray, g: np.ndarray, tol: float = DEFAULT_TOL, record: int | None = None):
        """The error the per-record derivation raises for one flagged record:
        the first violated fully known edit, else the first violated
        derived constant row, else the empty interval."""
        known_bad, check_bad, bounds, lower, upper, _ = self._derive(d[None, :], g[None, :], tol)
        prefix = "" if record is None else f"record {record}, variable {self.target!r}: "
        if known_bad.any():
            k = int(self.known[np.argmax(known_bad[0])])
            return InfeasibleRecordError(
                f"{prefix}record{'' if record is None else ' ' + str(record)} violates edit {k} "
                f"before imputation (residual {float(d[k]):.6g})",
                record=record,
                edit_index=k,
                witness=self.edits[k],
            )
        if check_bad.any():
            q = int(np.argmax(check_bad[0]))
            const = float(d @ self.check_comb[q])
            return InfeasibleSystemError(
                prefix + self.check_reason[q].format(residual=const, negated=-const),
                witness=self._support(self.check_comb[q]),
            )
        lo_row = int(np.argmax(np.where(self.bound_coef > 0, bounds[0], NEG_INF)))
        hi_row = int(np.argmin(np.where(self.bound_coef < 0, bounds[0], POS_INF)))
        return InfeasibleSystemError(
            f"{prefix}no admissible value for {self.target}: requires >= {lower[0]:.6g} "
            f"and <= {upper[0]:.6g}",
            witness=(self._support(self.bound_comb[lo_row]), self._support(self.bound_comb[hi_row])),
        )

    def _support(self, comb: np.ndarray) -> tuple[Edit, ...]:
        return tuple(self.edits[k] for k in np.flatnonzero(comb))

    def companions(self, values: np.ndarray, D: np.ndarray) -> np.ndarray:
        """Companion values (records x ``companion_vars``) once the target
        holds ``values``; what :func:`resolve_companions` returns per record."""
        return values[:, None] * self.companion_target + D @ self.companion_comb.T


def compile_interval(edits: Sequence[Edit], unknown: Collection[str], target: str) -> CompiledInterval:
    """Compile :func:`admissible_interval` and :func:`resolve_companions`
    for records whose unknown variables are ``unknown``.

    ``edits`` is the full system; the known variables' values enter only
    through the reduced constants at evaluation time.
    """
    edits = tuple(edits)
    n = len(edits)
    unknown = set(unknown)
    eye = np.eye(n)
    work: list[_Row] = []
    known: list[int] = []
    for k, edit in enumerate(edits):
        free = {v: c for v, c in edit.coeffs.items() if v in unknown}
        if free:
            work.append(_Row(free, eye[k], edit.kind))
        else:
            known.append(k)
    checks: list[tuple[np.ndarray, bool, str]] = []

    # Equalities, as in eliminate_equalities (each row has one combination).
    stack: list[tuple[str, dict[str, float], np.ndarray]] = []
    while True:
        eq_pos = next((i for i, r in enumerate(work) if r.kind is EditKind.EQUALITY), None)
        if eq_pos is None:
            break
        eq = work.pop(eq_pos)
        candidates = [(v, c) for v, c in eq.coeffs.items() if v != target]
        if not candidates:
            c = eq.coeffs[target]
            work.insert(eq_pos, _Row(dict(eq.coeffs), eq.combs, EditKind.INEQUALITY))
            work.insert(eq_pos + 1, _Row({target: -c}, -eq.combs, EditKind.INEQUALITY))
            continue
        pivot, cp = min(candidates, key=lambda item: (-abs(item[1]), item[0]))
        expr = {v: -c / cp for v, c in eq.coeffs.items() if v != pivot}
        expr_comb = -eq.combs / cp
        replaced: list[_Row] = []
        for other in work:
            if pivot not in other.coeffs:
                replaced.append(other)
                continue
            co = other.coeffs[pivot]
            coeffs = {v: c for v, c in other.coeffs.items() if v != pivot}
            for v, c in expr.items():
                coeffs[v] = coeffs.get(v, 0.0) + co * c
            coeffs = _clean_coeffs(coeffs)
            comb = other.combs + co * expr_comb
            if coeffs:
                replaced.append(_Row(coeffs, comb, other.kind))
            else:
                reason = f"substituting {pivot} makes edit infeasible (residual {{residual:.6g}})"
                checks.append((comb, other.kind is EditKind.EQUALITY, reason))
        work = replaced
        stack.append((pivot, expr, expr_comb))

    # Projection, as in fourier_motzkin_eliminate on the merged rows.
    for row in work:
        row.combs = row.combs[None, :]
    rows = _merge_parallel(work)
    while True:
        var = _elimination_order(rows, target)
        if var is None:
            break
        lowers = [r for r in rows if r.coeffs.get(var, 0.0) > 0]
        uppers = [r for r in rows if r.coeffs.get(var, 0.0) < 0]
        out = [r for r in rows if r.coeffs.get(var, 0.0) == 0]
        for lo in lowers:
            cl = lo.coeffs[var]
            for up in uppers:
                cu = up.coeffs[var]
                m_lo, m_up = -cu, cl
                coeffs: dict[str, float] = {}
                for v, c in lo.coeffs.items():
                    if v != var:
                        coeffs[v] = coeffs.get(v, 0.0) + m_lo * c
                for v, c in up.coeffs.items():
                    if v != var:
                        coeffs[v] = coeffs.get(v, 0.0) + m_up * c
                combs = (m_lo * lo.combs[:, None, :] + m_up * up.combs[None, :, :]).reshape(-1, n)
                coeffs = _clean_coeffs(coeffs)
                if coeffs:
                    out.append(_Row(coeffs, combs, EditKind.INEQUALITY))
                    continue
                reason = f"eliminating {var} derives the contradiction 0 >= {{negated:.6g}}"
                checks.extend((comb, False, reason) for comb in combs)
        rows = _merge_parallel(out)

    bound_coef = [row.coeffs[target] for row in rows for _ in row.combs]
    bound_comb = [comb for row in rows for comb in row.combs]

    # Companions, as in resolve_companions with only the target assigned:
    # each resolved value is affine in the target value and the constants.
    affine: dict[str, tuple[float, np.ndarray]] = {target: (1.0, np.zeros(n))}
    companions: list[str] = []
    for var, expr, expr_comb in reversed(stack):
        if var in affine or not all(v in affine for v in expr):
            continue
        coef = math.fsum(c * affine[v][0] for v, c in expr.items())
        comb = expr_comb + sum((c * affine[v][1] for v, c in expr.items()), np.zeros(n))
        affine[var] = (coef, comb)
        companions.append(var)

    def matrix(combs: list) -> np.ndarray:
        return np.array(combs, dtype=float).reshape(len(combs), n)

    return CompiledInterval(
        target=target,
        edits=edits,
        known=np.array(known, dtype=int),
        known_eq=np.array([edits[k].kind is EditKind.EQUALITY for k in known], dtype=bool),
        bound_coef=np.array(bound_coef, dtype=float),
        bound_comb=matrix(bound_comb),
        check_comb=matrix([c for c, _, _ in checks]),
        check_eq=np.array([e for _, e, _ in checks], dtype=bool),
        check_reason=tuple(r for _, _, r in checks),
        companion_vars=tuple(companions),
        companion_target=np.array([affine[v][0] for v in companions], dtype=float),
        companion_comb=matrix([affine[v][1] for v in companions]),
    )
