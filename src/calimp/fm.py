"""Interval derivation for one missing cell by constraint projection.

Equalities of a record's reduced edit system are removed by substitution,
the remaining inequalities are projected variable by variable (combining
every lower/upper bound pair on the eliminated variable), and the result
is read off as an admissible interval for the target cell.  Every value
inside the interval extends to a full assignment satisfying the original
system, which :func:`back_substitute` reconstructs.

:func:`compile_interval` performs the same derivation, back-substitution
included, once for every record sharing an unknown-variable pattern; it is
evaluated with array operations over many records or in plain Python for
one (the refinement chain's record pairs).  It reads the matrix form of
the system (:func:`calimp.edits.system_matrices`) and computes on
coefficient lists over the unknowns sorted by name; the per-record
functions, on the ``{name: coefficient}`` form of edits, remain its
reference.
"""

from __future__ import annotations

import functools
import itertools
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


UNBOUNDED = Interval(NEG_INF, POS_INF)


@dataclass(frozen=True)
class LinExpr:
    """Affine expression ``const + sum coeffs[v] * v`` over remaining variables."""

    coeffs: dict[str, float]
    const: float

    def evaluate(self, values: Mapping[str, float]) -> float:
        return math.fsum(c * values[v] for v, c in self.coeffs.items()) + self.const


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


def _constant_row_ok(const: float, gross: float, kind: EditKind) -> bool:
    bound = DEFAULT_TOL * max(1.0, gross)
    if kind is EditKind.EQUALITY:
        return abs(const) <= bound
    return const >= -bound


def eliminate_equalities(
    edits: Sequence[Edit],
    keep: str | None,
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
            elif not _constant_row_ok(const, gross, other.kind):
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


def fourier_motzkin_eliminate(edits: Sequence[Edit], var: str) -> list[Edit]:
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
                if not _constant_row_ok(const, gross, EditKind.INEQUALITY):
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


def admissible_interval(system: ReducedSystem | Sequence[Edit], target: str) -> tuple[Interval, EliminationRecord]:
    """Exact feasible range of ``target`` under a reduced edit system.

    Returns the interval together with the elimination record needed to
    complete the remaining variables afterwards.  A target not mentioned by
    any edit comes back unbounded.
    """
    edits0 = tuple(system.edits) if isinstance(system, ReducedSystem) else tuple(system)
    ineqs, eq_subs = eliminate_equalities(edits0, keep=target)
    ineqs = _dedupe(ineqs)
    fm_steps: list[tuple[str, list[Edit]]] = []
    while True:
        var = _elimination_order(ineqs, target)
        if var is None:
            break
        fm_steps.append((var, list(ineqs)))
        ineqs = fourier_motzkin_eliminate(ineqs, var)

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
        slack = DEFAULT_TOL * max(1.0, abs(lower), abs(upper))
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


def _one_dim_interval(edits: Sequence[Edit], var: str, values: Mapping[str, float]) -> Interval:
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
        slack = DEFAULT_TOL * max(1.0, abs(lower), abs(upper))
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
    if not record.interval.contains(assigned[record.target]):
        raise ValueError(
            f"value {assigned[record.target]!r} for {record.target!r} lies outside "
            f"the admissible interval [{record.interval.lower}, {record.interval.upper}]"
        )
    rule = value_rule or default_value_rule
    values = dict(assigned)
    for var, pre_system in reversed(record.fm_steps):
        if var in values:
            continue
        interval = _one_dim_interval(pre_system, var, values)
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
        if not edit.is_satisfied(values, DEFAULT_TOL, scale):
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
#
# A derived row is a pair: its coefficients, one per unknown in name order,
# and the alternative combinations of the original edits giving its
# constant (rows of an array).  Parallel rows share one signature;
# _dedupe keeps the tighter of them per record, which depends on the
# record's constants, so a compiled row keeps every distinct combination
# and the record-wise extreme is taken when bounds are read off.

def _cleaned(coeffs: list[float]) -> list[float]:
    """:func:`_clean_coeffs` on a coefficient list: negligible entries become 0."""
    floor = COEFF_EPS * max(1.0, max(map(abs, coeffs)))
    return [c if abs(c) > floor else 0.0 for c in coeffs]


def _merge_parallel(rows: list[tuple[list[float], np.ndarray]]) -> list[tuple[list[float], np.ndarray]]:
    """Compiled counterpart of :func:`_dedupe`: normalize, then pool the
    combinations of rows with one coefficient signature.  Absent
    variables hold 0 and no coefficient above ``COEFF_EPS`` rounds to 0,
    so signatures over all unknowns part the rows as :func:`_dedupe`'s
    over the variables present do."""
    merged: dict[tuple, tuple[list[float], list[np.ndarray]]] = {}
    for coeffs, combs in rows:
        m = max(map(abs, coeffs))
        if m != 1.0:
            coeffs, combs = [c / m for c in coeffs], combs / m
        sig = tuple([round(c, 12) if c else 0.0 for c in coeffs])
        merged.setdefault(sig, (coeffs, []))[1].append(combs)
    out = []
    for coeffs, parts in merged.values():
        combs = np.concatenate(parts)
        if len(combs) > 1:
            # The first of each set of equal rounded combinations, in order;
            # adding 0.0 folds -0.0 into 0.0.
            keys = [row.tobytes() for row in np.round(combs, 12) + 0.0]
            combs = combs[[keys.index(key) for key in dict.fromkeys(keys)]]
        out.append((coeffs, combs))
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
    #: The unknowns and the target, sorted by name; ``slices``,
    #: ``substitutions`` and :meth:`complete` address them by position.
    unknown: tuple[str, ...]
    #: Target coefficient and edit combination of each bound row.
    bound_coef: np.ndarray
    bound_comb: np.ndarray
    #: Rows without variables, with their equality flag and the message
    #: raised when a record violates one.  The edits with no unknown
    #: variable (each record's reduction check) lead, as identity
    #: combinations with reason ``None``; the derived rows follow.
    check_comb: np.ndarray
    check_eq: np.ndarray
    check_reason: tuple[str | None, ...]
    #: Equality-forced companions as an affine map of the target value and
    #: the reduced constants: ``value = target_coef * x + comb . d``.
    companion_vars: tuple[str, ...]
    companion_target: np.ndarray
    companion_comb: np.ndarray
    #: The compiled :func:`back_substitute`.  ``slices`` holds, per
    #: projected variable in elimination order, its one-dimensional slice:
    #: one (coefficient, other terms) entry per row of the system it was
    #: projected from that involves it, whose constant is the matching row
    #: of ``slice_comb``.  ``substitutions`` holds each equality pivot and
    #: its expression in the variables left, whose constant is the matching
    #: row of ``substitution_comb``.  Variables are positions in
    #: ``unknown``; terms are (position, coefficient) pairs.
    slices: tuple[tuple[int, tuple[tuple[float, tuple[tuple[int, float], ...]], ...]], ...]
    slice_comb: np.ndarray
    substitutions: tuple[tuple[int, tuple[tuple[int, float], ...]], ...]
    substitution_comb: np.ndarray

    def _derive(self, D: np.ndarray, G: np.ndarray):
        check_gross = G @ np.abs(self.check_comb).T
        check_bad = violated(D @ self.check_comb.T, self.check_eq, DEFAULT_TOL * np.maximum(1.0, check_gross))
        bounds = -(D @ self.bound_comb.T) / self.bound_coef
        lower = np.max(bounds, axis=1, where=self.bound_coef > 0, initial=NEG_INF)
        upper = np.min(bounds, axis=1, where=self.bound_coef < 0, initial=POS_INF)
        crossed = np.flatnonzero(lower > upper)
        lo, hi = lower[crossed], upper[crossed]
        snap = lo - hi <= DEFAULT_TOL * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        lower[crossed[snap]] = upper[crossed[snap]] = 0.5 * (lo[snap] + hi[snap])
        empty = np.zeros(D.shape[0], dtype=bool)
        empty[crossed[~snap]] = True
        return check_bad, bounds, lower, upper, empty

    def evaluate(self, D: np.ndarray, G: np.ndarray):
        """Bounds for records with reduced constants ``D`` and gross
        magnitudes ``G`` (records x edits), plus a flag per record for
        which the per-record derivation raises (see :meth:`infeasibility`)."""
        check_bad, _, lower, upper, empty = self._derive(D, G)
        return lower, upper, check_bad.any(axis=1) | empty

    def infeasibility(self, edits: Sequence, d: np.ndarray, g: np.ndarray, record: int | None = None):
        """The error the per-record derivation raises for one flagged record:
        the first violated check row (a fully known edit, else a derived
        row), else the empty interval.  ``edits`` are the compiled system's
        edits, which the error names as its witnesses."""
        check_bad, bounds, lower, upper, _ = self._derive(d[None, :], g[None, :])
        prefix = "" if record is None else f"record {record}, variable {self.target!r}: "

        def support(comb: np.ndarray) -> tuple:
            return tuple(edits[k] for k in np.flatnonzero(comb))

        if check_bad.any():
            q = int(np.argmax(check_bad[0]))
            reason = self.check_reason[q]
            if reason is None:
                k = int(np.argmax(self.check_comb[q]))
                return InfeasibleRecordError(
                    f"{prefix}record{'' if record is None else ' ' + str(record)} violates edit {k} "
                    f"before imputation (residual {float(d[k]):.6g})",
                    record=record,
                    edit_index=k,
                    witness=edits[k],
                )
            const = float(d @ self.check_comb[q])
            return InfeasibleSystemError(
                prefix + reason.format(residual=const, negated=-const), witness=support(self.check_comb[q])
            )
        lo_row = int(np.argmax(np.where(self.bound_coef > 0, bounds[0], NEG_INF)))
        hi_row = int(np.argmin(np.where(self.bound_coef < 0, bounds[0], POS_INF)))
        return InfeasibleSystemError(
            f"{prefix}no admissible value for {self.target}: requires >= {lower[0]:.6g} "
            f"and <= {upper[0]:.6g}",
            witness=(support(self.bound_comb[lo_row]), support(self.bound_comb[hi_row])),
        )

    def companions(self, values: np.ndarray, D: np.ndarray) -> np.ndarray:
        """Companion values (records x ``companion_vars``) once the target
        holds ``values``; what :func:`resolve_companions` returns per record."""
        return values[:, None] * self.companion_target + D @ self.companion_comb.T

    # One record at a time, in plain Python: for a single record numpy's
    # call overhead exceeds the arithmetic of a system this small.

    def record_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The combinations one record's :meth:`record_interval` and
        :meth:`complete` read: applied to its reduced constants ``d`` they
        give the check rows, the bound rows, the slice rows and the
        substitution constants, in that order; the second matrix, applied
        to its gross magnitudes, gives the tolerance scale of the check
        rows."""
        values = np.vstack([self.check_comb, self.bound_comb, self.slice_comb, self.substitution_comb])
        return values, np.abs(self.check_comb)

    @functools.cached_property
    def _layout(self):
        slices, at = [], len(self.check_eq) + len(self.bound_coef)
        for var, entries in self.slices:
            slices.append((var, [(at + i, c, others) for i, (c, others) in enumerate(entries)]))
            at += len(entries)
        substitutions = [(var, expr, at + i) for i, (var, expr) in enumerate(self.substitutions)]
        return (
            self.check_eq.tolist(),
            self.bound_coef.tolist(),
            slices[::-1],
            substitutions[::-1],
            self.unknown.index(self.target),
        )

    def record_interval(self, y: Sequence[float], g: Sequence[float]) -> Interval:
        """:func:`admissible_interval` of one record from ``y`` and ``g``,
        the two products of :meth:`record_rows` with its constants: the
        interval, or a bare :class:`InfeasibleSystemError` where it raises."""
        is_eq, bound_coef, _, _, _ = self._layout
        for r, gross, eq in zip(y, g, is_eq):
            margin = DEFAULT_TOL * max(1.0, gross)
            if abs(r) > margin if eq else r < -margin:
                raise InfeasibleSystemError(f"no admissible value for {self.target}")
        lower, upper = NEG_INF, POS_INF
        for c, v in zip(bound_coef, y[len(is_eq):]):
            bound = -v / c
            if c > 0:
                if bound > lower:
                    lower = bound
            elif bound < upper:
                upper = bound
        return Interval(*_snap(lower, upper))

    def complete(self, value: float, y: Sequence[float], current: Sequence[float]) -> list[float]:
        """:func:`back_substitute` of one record with the target at
        ``value`` and the rule that keeps each variable's ``current`` value,
        clamped into its slice.  ``current`` and the result list the
        unknowns in :attr:`unknown` order, and ``y`` is as for
        :meth:`record_interval`.  Unknowns no edit constrains keep their
        current value."""
        _, _, slices, substitutions, target = self._layout
        values = list(current)
        values[target] = value
        for var, entries in slices:
            lower, upper = NEG_INF, POS_INF
            for at, c, others in entries:
                rest = y[at]
                for v, cv in others:
                    rest += cv * values[v]
                bound = -rest / c
                if c > 0:
                    if bound > lower:
                        lower = bound
                elif bound < upper:
                    upper = bound
            lower, upper = _snap(lower, upper)
            values[var] = min(max(current[var], lower), upper)
        for var, expr, at in substitutions:
            acc = y[at]
            for v, c in expr:
                acc += c * values[v]
            values[var] = acc
        return values


def _snap(lower: float, upper: float) -> tuple[float, float]:
    """Bounds crossed by no more than rounding meet at their midpoint; a
    wider crossing is infeasible."""
    if lower > upper:
        if lower - upper > DEFAULT_TOL * max(1.0, abs(lower), abs(upper)):
            raise InfeasibleSystemError(f"empty range: requires >= {lower:.6g} and <= {upper:.6g}")
        lower = upper = 0.5 * (lower + upper)
    return lower, upper


def compile_interval(
    A: np.ndarray, is_eq: np.ndarray, names: Sequence[str], unknown: Collection[str], target: str
) -> CompiledInterval:
    """Compile :func:`admissible_interval`, :func:`resolve_companions` and
    :func:`back_substitute` for records whose unknown variables are
    ``unknown``.

    ``A`` and ``is_eq`` are the full system's coefficient matrix and
    equality flags (:func:`calimp.edits.system_matrices`), and ``names``
    labels the columns of ``A``; a variable that no column carries is in
    no edit.  The known variables' values enter only through the reduced
    constants at evaluation time.  Positions follow the names, so the
    first extreme entry breaks ties by name, as in
    :func:`eliminate_equalities` and :func:`_elimination_order`.
    """
    n = len(A)
    order = tuple(sorted({*unknown, target}))
    at = order.index(target)
    column = {v: j for j, v in enumerate(names)}
    # The appended zero column stands for every variable outside ``names``.
    U = np.hstack([A, np.zeros((n, 1))])[:, [column.get(v, -1) for v in order]]
    eye = np.eye(n)
    work: list[tuple[list[float], np.ndarray, bool]] = []
    checks: list[tuple[np.ndarray, bool, str | None]] = []
    for k, (coeffs, eq) in enumerate(zip(U.tolist(), is_eq.tolist())):
        if any(coeffs):
            work.append((coeffs, eye[k], eq))
        else:
            checks.append((eye[k], eq, None))

    # Equalities, as in eliminate_equalities (each row has one combination).
    stack: list[tuple[int, tuple[tuple[int, float], ...], np.ndarray]] = []
    while (eq_pos := next((i for i, row in enumerate(work) if row[2]), None)) is not None:
        eq, eq_comb, _ = work.pop(eq_pos)
        mags = [0.0 if i == at else abs(c) for i, c in enumerate(eq)]
        pivot = mags.index(max(mags))
        if not mags[pivot]:
            # Only the target remains: pin it with a bound pair.
            work[eq_pos:eq_pos] = [(eq, eq_comb, False), ([-c for c in eq], -eq_comb, False)]
            continue
        cp = eq[pivot]
        # expr[pivot] is exactly -1, so substituting leaves an exact 0 there.
        expr = [-c / cp for c in eq]
        expr_comb = -eq_comb / cp
        replaced = []
        for coeffs, comb, row_eq in work:
            if co := coeffs[pivot]:
                coeffs, comb = _cleaned([a + co * e for a, e in zip(coeffs, expr)]), comb + co * expr_comb
                if not any(coeffs):
                    reason = f"substituting {order[pivot]} makes edit infeasible (residual {{residual:.6g}})"
                    checks.append((comb, row_eq, reason))
                    continue
            replaced.append((coeffs, comb, row_eq))
        work = replaced
        stack.append((pivot, tuple((i, c) for i, c in enumerate(expr) if c and i != pivot), expr_comb))

    # Projection, as in fourier_motzkin_eliminate on the merged rows; the
    # next variable is the one in fewest rows, as in _elimination_order.
    rows = _merge_parallel([(coeffs, comb[None, :]) for coeffs, comb, _ in work])
    slices: list[tuple[int, tuple]] = []
    slice_comb: list[np.ndarray] = []
    while rows:
        counts = [sum(map(bool, column)) for column in zip(*(coeffs for coeffs, _ in rows))]
        counts[at] = 0
        if not any(counts):
            break
        var = counts.index(min(c for c in counts if c))
        lowers = [r for r in rows if r[0][var] > 0]
        uppers = [r for r in rows if r[0][var] < 0]
        # var's one-dimensional slice, as back_substitute reads it off the
        # system var is projected from.
        entries = []
        for coeffs, combs in lowers + uppers:
            others = tuple((i, c) for i, c in enumerate(coeffs) if c and i != var)
            entries.extend((coeffs[var], others) for _ in combs)
            slice_comb.extend(combs)
        slices.append((var, tuple(entries)))
        out = [r for r in rows if not r[0][var]]
        for (lo, lo_combs), (up, up_combs) in itertools.product(lowers, uppers):
            # var's own entry cancels exactly: -cu * cl + cl * cu.
            m_lo, m_up = -up[var], lo[var]
            coeffs = _cleaned([m_lo * a + m_up * b for a, b in zip(lo, up)])
            combs = (m_lo * lo_combs[:, None, :] + m_up * up_combs[None, :, :]).reshape(-1, n)
            if any(coeffs):
                out.append((coeffs, combs))
            else:
                reason = f"eliminating {order[var]} derives the contradiction 0 >= {{negated:.6g}}"
                checks.extend((comb, False, reason) for comb in combs)
        rows = _merge_parallel(out)

    bound_coef = [coeffs[at] for coeffs, combs in rows for _ in combs]
    bound_comb = [comb for _, combs in rows for comb in combs]

    # Companions, as in resolve_companions with only the target assigned:
    # each resolved value is affine in the target value and the constants.
    affine: dict[int, tuple[float, np.ndarray]] = {at: (1.0, np.zeros(n))}
    for var, terms, expr_comb in reversed(stack):
        if all(i in affine for i, _ in terms):
            coef = math.fsum(c * affine[i][0] for i, c in terms)
            affine[var] = (coef, expr_comb + sum((c * affine[i][1] for i, c in terms), np.zeros(n)))
    companions = list(affine)[1:]

    def matrix(combs: list) -> np.ndarray:
        return np.array(combs, dtype=float).reshape(len(combs), n)

    return CompiledInterval(
        target=target,
        unknown=order,
        bound_coef=np.array(bound_coef, dtype=float),
        bound_comb=matrix(bound_comb),
        check_comb=matrix([c for c, _, _ in checks]),
        check_eq=np.array([e for _, e, _ in checks], dtype=bool),
        check_reason=tuple(r for _, _, r in checks),
        companion_vars=tuple(order[i] for i in companions),
        companion_target=np.array([affine[i][0] for i in companions], dtype=float),
        companion_comb=matrix([affine[i][1] for i in companions]),
        slices=tuple(slices),
        slice_comb=matrix(slice_comb),
        substitutions=tuple((var, terms) for var, terms, _ in stack),
        substitution_comb=matrix([expr_comb for _, _, expr_comb in stack]),
    )
