"""Interval derivation for missing cells by constraint projection.

Equalities of a record's reduced edit system are removed by substitution,
the remaining inequalities are projected variable by variable (combining
every lower/upper bound pair on the eliminated variable), and the result
is read off as an admissible interval for the target cell.  Every value
inside the interval extends to a full assignment satisfying the original
system, which the completion reconstructs.

:func:`compile_interval` makes the derivation's choices once for every
record sharing an unknown-variable pattern, on the matrix form of the
system (:func:`calimp.edits.system_matrices`); the resulting
:class:`CompiledInterval` is evaluated with array operations over a
pattern's records, or over the record pairs of the refinement chain.
:class:`Derivations`, its one caller, compiles it once per block of unknowns.
:func:`read_bounds` reads an interval off signed bound rows for both.
The per-record functions (:func:`admissible_interval` through
:func:`resolve_companions`), on the ``{name: coefficient}`` form of
edits, are the tests' reference for it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Collection, Mapping, Sequence

import numpy as np

from .edits import COEFF_EPS, DEFAULT_TOL, Edit, EditKind, ReducedSystem, violated
from .errors import InfeasibleSystemError

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
    recovered once later-eliminated variables are known.  Crossed bounds
    of such a range meet at their midpoint, and the completion is checked
    on ``scale``, the system's margin scale (:attr:`ReducedSystem.scale`).
    """

    target: str
    interval: Interval
    eq_subs: SubstitutionStack
    fm_steps: list[tuple[str, list[Edit]]]
    system: tuple[Edit, ...]
    scale: float


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


def _substitute(
    edit: Edit, var: str, expr: LinExpr, mass: float, expr_mass: float
) -> tuple[dict[str, float], float, float]:
    """Replace ``var`` by ``expr`` in an edit of mass ``mass`` (``expr_mass``
    for the expression's); returns coeffs, const and the new row's mass."""
    cp = edit.coeffs[var]
    coeffs = {v: c for v, c in edit.coeffs.items() if v != var}
    for v, c in expr.coeffs.items():
        coeffs[v] = coeffs.get(v, 0.0) + cp * c
    return _clean_coeffs(coeffs), edit.constant + cp * expr.const, mass + abs(cp) * expr_mass


def eliminate_equalities(
    edits: Sequence[Edit],
    keep: str | None,
    scale: float = 1.0,
) -> tuple[list[Edit], SubstitutionStack, list[float]]:
    """Remove every equality by substitution, sparing ``keep``.

    Each equality consumes the variable with the largest-magnitude
    coefficient other than ``keep`` (ties broken by name).  An equality
    whose only variable is ``keep`` is turned into the pair of inequalities
    pinning it.  Returns the inequality-only system, the substitution
    stack in elimination order and each inequality's mass: the sum of the
    magnitudes of the multiples of ``edits`` it adds up (1 for an edit
    itself).  A derived row without variables must hold to ``DEFAULT_TOL``
    times ``scale`` times its mass, the margin the edits give it when each
    holds to ``DEFAULT_TOL`` times ``scale``.
    """
    work = list(edits)
    masses = [1.0] * len(work)
    stack: SubstitutionStack = []
    while True:
        eq_pos = next((i for i, e in enumerate(work) if e.kind is EditKind.EQUALITY), None)
        if eq_pos is None:
            return work, stack, masses
        eq = work.pop(eq_pos)
        eq_mass = masses.pop(eq_pos)
        candidates = [(v, c) for v, c in eq.coeffs.items() if v != keep]
        if not candidates:
            # Only the kept variable remains: pin it with a bound pair.
            c = eq.coeffs[keep]
            work.insert(eq_pos, Edit(dict(eq.coeffs), eq.constant, EditKind.INEQUALITY))
            work.insert(eq_pos + 1, Edit({keep: -c}, -eq.constant, EditKind.INEQUALITY))
            masses[eq_pos:eq_pos] = [eq_mass, eq_mass]
            continue
        pivot, cp = min(candidates, key=lambda item: (-abs(item[1]), item[0]))
        expr = LinExpr(
            {v: -c / cp for v, c in eq.coeffs.items() if v != pivot},
            -eq.constant / cp,
        )
        replaced: list[Edit] = []
        replaced_masses: list[float] = []
        for other, mass in zip(work, masses):
            if pivot not in other.coeffs:
                replaced.append(other)
                replaced_masses.append(mass)
                continue
            coeffs, const, mass = _substitute(other, pivot, expr, mass, eq_mass / abs(cp))
            if coeffs:
                replaced.append(Edit(coeffs, const, other.kind))
                replaced_masses.append(mass)
            elif violated(const, other.kind is EditKind.EQUALITY, DEFAULT_TOL * scale * mass):
                raise InfeasibleSystemError(
                    f"substituting {pivot} makes edit infeasible (residual {const:.6g})",
                    witness=(eq, other),
                )
        work, masses = replaced, replaced_masses
        stack.append((pivot, expr))


def _dedupe(edits: Sequence[Edit], masses: Sequence[float]) -> tuple[list[Edit], list[float]]:
    """Fold parallel rows, keeping the tighter of each half-plane pair, and
    their masses (see :func:`eliminate_equalities`).

    Rows are normalized to leading magnitude one first, so rows with the
    same coefficient signature are positive multiples of each other and
    the smaller constant is the binding one.
    """
    out: list[Edit] = []
    out_masses: list[float] = []
    by_signature: dict[tuple, int] = {}
    for edit, mass in zip(edits, masses):
        m = max(abs(c) for c in edit.coeffs.values())
        if m != 1.0:
            edit, mass = Edit({v: c / m for v, c in edit.coeffs.items()}, edit.constant / m, edit.kind), mass / m
        sig = tuple(sorted((v, round(c, 12)) for v, c in edit.coeffs.items()))
        if sig in by_signature:
            k = by_signature[sig]
            if edit.constant < out[k].constant:
                out[k], out_masses[k] = edit, mass
            continue
        by_signature[sig] = len(out)
        out.append(edit)
        out_masses.append(mass)
    return out, out_masses


def fourier_motzkin_eliminate(
    edits: Sequence[Edit], var: str, masses: Sequence[float] = (), scale: float = 1.0
) -> tuple[list[Edit], list[float]]:
    """Project an inequality-only system onto the variables other than ``var``.

    Every (lower bound, upper bound) pair on ``var`` combines into one
    derived inequality; rows not involving ``var`` pass through.  Returns
    the projected rows and their masses, from the rows' ``masses`` (see
    :func:`eliminate_equalities`; 1 each by default).  A derived constant
    row that fails by more than ``DEFAULT_TOL`` times ``scale`` times its
    mass is reported as infeasible.
    """
    masses = list(masses) or [1.0] * len(edits)
    lowers: list[tuple[Edit, float]] = []
    uppers: list[tuple[Edit, float]] = []
    out: list[Edit] = []
    out_masses: list[float] = []
    for edit, mass in zip(edits, masses):
        if edit.kind is not EditKind.INEQUALITY:
            raise ValueError("fourier_motzkin_eliminate expects an inequality-only system")
        c = edit.coeffs.get(var, 0.0)
        if c > 0:
            lowers.append((edit, mass))
        elif c < 0:
            uppers.append((edit, mass))
        else:
            out.append(edit)
            out_masses.append(mass)
    for lo, lo_mass in lowers:
        for up, up_mass in uppers:
            m_lo, m_up = -up.coeffs[var], lo.coeffs[var]  # both positive
            coeffs: dict[str, float] = {}
            for m, row in ((m_lo, lo), (m_up, up)):
                for v, c in row.coeffs.items():
                    if v != var:
                        coeffs[v] = coeffs.get(v, 0.0) + m * c
            const = m_lo * lo.constant + m_up * up.constant
            mass = m_lo * lo_mass + m_up * up_mass
            coeffs = _clean_coeffs(coeffs)
            if not coeffs:
                if violated(const, False, DEFAULT_TOL * scale * mass):
                    raise InfeasibleSystemError(
                        f"eliminating {var} derives the contradiction 0 >= {-const:.6g}",
                        witness=(lo, up),
                    )
                continue
            out.append(Edit(coeffs, const, EditKind.INEQUALITY))
            out_masses.append(mass)
    return _dedupe(out, out_masses)


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
    any edit comes back unbounded.  Every feasibility decision is made on
    the system's margin scale ``s``, to which its edits hold
    (:attr:`ReducedSystem.scale`; 1 for a plain sequence of edits), and
    each derived row's mass ``m`` (see :func:`eliminate_equalities`):
    a derived row without variables holds to ``DEFAULT_TOL * s * m``, and
    crossed bounds on the target meet, as :func:`read_bounds` rules, where
    the rows loosened by that margin still overlap, at the midpoint clamped
    into the overlap.
    """
    if not isinstance(system, ReducedSystem):
        system = ReducedSystem(tuple(system))
    scale = system.scale
    ineqs, eq_subs, masses = eliminate_equalities(system.edits, keep=target, scale=scale)
    ineqs, masses = _dedupe(ineqs, masses)
    fm_steps: list[tuple[str, list[Edit]]] = []
    while True:
        var = _elimination_order(ineqs, target)
        if var is None:
            break
        fm_steps.append((var, list(ineqs)))
        ineqs, masses = fourier_motzkin_eliminate(ineqs, var, masses, scale)

    # Every row left is in the target alone; ``loose`` is its bound with
    # the row loosened by its margin.
    lower, upper, lo_loose, hi_loose = NEG_INF, POS_INF, NEG_INF, POS_INF
    lo_witness = hi_witness = None
    for edit, mass in zip(ineqs, masses):
        c = edit.coeffs[target]
        bound = -edit.constant / c
        loose = bound - DEFAULT_TOL * scale * (mass / c)
        if c > 0:
            lo_loose = max(lo_loose, loose)
            if bound > lower:
                lower, lo_witness = bound, edit
        else:
            hi_loose = min(hi_loose, loose)
            if bound < upper:
                upper, hi_witness = bound, edit
    if lower > upper:
        if lo_loose > hi_loose:
            raise InfeasibleSystemError(
                f"no admissible value for {target}: requires >= {lower + 0.0:.6g} and <= {upper + 0.0:.6g}",
                witness=(lo_witness, hi_witness),
            )
        lower = upper = min(max(0.5 * (lower + upper), lo_loose), hi_loose)
    record = EliminationRecord(
        target=target,
        interval=Interval(lower, upper),
        eq_subs=eq_subs,
        fm_steps=fm_steps,
        system=system.edits,
        scale=scale,
    )
    return record.interval, record


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
    if lower > upper:  # as CompiledInterval.complete: back_substitute's final check judges the record
        lower = upper = 0.5 * (lower + upper)
    return Interval(lower, upper)


def back_substitute(
    record: EliminationRecord,
    assigned: Mapping[str, float],
    value_rule: ValueRule | None = None,
) -> dict[str, float]:
    """Complete a record from an assigned target value.

    Projected variables are resolved in reverse elimination order: each gets
    its now one-dimensional admissible range (crossed bounds meet at their
    midpoint) and the value rule picks a point in it (midpoint by default;
    samplers substitute their own rule).  Equality-eliminated variables
    then follow exactly.  The full assignment is validated against the
    original system before returning, on the larger of the record's scale
    and the assigned magnitudes: the one feasibility verdict of the
    completion.
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

    scale = max(record.scale, *map(abs, values.values()))
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
    """A target's admissible interval, and the completion of the other
    unknowns once it is set, for all records with one unknown pattern.

    Equalities are substituted out, each consuming the unknown of its
    largest coefficient magnitude but the target; the inequalities left
    are projected out one variable at a time, the one in fewest rows
    first, each pair of a lower and an upper bound on it combining into
    one row; ties break by name.  Each choice depends only on which variables are unknown, so it
    is made once, and a derived row keeps its coefficients over the
    unknowns and its combination of the original edits (one column per
    edit; equality columns may carry either sign, inequality columns are
    nonnegative).  Parallel rows merge, keeping every distinct
    combination.  A record's derived constants are the combinations
    applied to its reduced constants ``d``
    (:func:`calimp.edits.reduced_constants`), judged on its margin scale
    (:func:`calimp.edits.record_scale`).  The per-record functions
    (:func:`admissible_interval`, :func:`back_substitute`) are the tests'
    reference.

    An edit whose variables are all known is not carried: the records'
    fully known edits must already pass
    :func:`calimp.edits.violation_matrix`, as ``pipeline.check_inputs``
    checks them, so each is checked once, at that margin.
    """

    target: str
    #: Whether the equalities alone fix the target: elimination left an
    #: equality in the target only, so a record's interval is a point (or
    #: empty).
    pinned: bool
    #: The unknowns and the target, sorted by name; the dense rows, the
    #: ``*_var`` fields and :meth:`complete` address them by position.
    unknown: tuple[str, ...]
    #: Target coefficient, edit combination and mass (the sum of the
    #: combination's magnitudes) of each bound row.
    bound_coef: np.ndarray
    bound_comb: np.ndarray
    bound_mass: np.ndarray
    #: Derived rows without variables, with their equality flag and the
    #: message raised when a record violates one: the witness of an
    #: infeasible pattern.
    check_comb: np.ndarray
    check_eq: np.ndarray
    check_reason: tuple[str, ...]
    #: Each check row's mass: the sum of its combination's magnitudes.
    check_mass: np.ndarray
    #: The completion's dense rows over ``unknown``, each with the edit
    #: combination of its constant.  Slice row k is a row, involving
    #: ``slice_var[k]``, of the system that variable was projected from,
    #: grouped by variable in elimination order; substitution row k gives
    #: pivot ``substitution_var[k]`` (its own entry 0), in elimination order.
    slice_var: np.ndarray
    slice_coef: np.ndarray
    slice_comb: np.ndarray
    substitution_var: np.ndarray
    substitution_coef: np.ndarray
    substitution_comb: np.ndarray

    def _derive(self, D: np.ndarray, scale: np.ndarray):
        check_bad = violated(D @ self.check_comb.T, self.check_eq, DEFAULT_TOL * np.outer(scale, self.check_mass))
        lower, upper, bounds = read_bounds(D @ self.bound_comb.T, self.bound_coef, scale, self.bound_mass)
        return check_bad, bounds, lower, upper, lower > upper

    def evaluate(self, D: np.ndarray, scale: np.ndarray):
        """Bounds for records with reduced constants ``D`` (records x
        edits) and margin scales ``scale`` (one per record), plus a flag
        per record with a violated check row or an empty interval (see
        :meth:`infeasibility`).  The records' fully known edits must hold
        to ``violation_matrix``'s margin; they are not checked here."""
        check_bad, _, lower, upper, empty = self._derive(D, scale)
        return lower, upper, np.asfortranarray(check_bad).any(axis=1) | empty

    def infeasibility(self, edits: Sequence, d: np.ndarray, scale: float, record: int | None = None):
        """The error of one flagged record, with reduced constants ``d`` and margin scale ``scale``: the first
        violated derived check row, else the empty interval.  ``edits`` are
        the compiled system's edits, which the error names as its
        witnesses."""
        check_bad, bounds, lower, upper, _ = self._derive(d[None, :], np.array([scale]))
        prefix = "" if record is None else f"record {record}, variable {self.target!r}: "

        def support(comb: np.ndarray) -> tuple:
            return tuple(edits[k] for k in np.flatnonzero(comb))

        if check_bad.any():
            q = int(np.argmax(check_bad[0]))
            const = float(d @ self.check_comb[q])
            return InfeasibleSystemError(
                prefix + self.check_reason[q].format(residual=const, negated=-const),
                witness=support(self.check_comb[q]),
            )
        lo_row = int(np.argmax(np.where(self.bound_coef > 0, bounds[0], NEG_INF)))
        hi_row = int(np.argmin(np.where(self.bound_coef < 0, bounds[0], POS_INF)))
        # Adding 0.0 folds a bound of -0.0 into 0.0, which prints as 0.
        return InfeasibleSystemError(
            f"{prefix}no admissible value for {self.target}: requires >= {lower[0] + 0.0:.6g} "
            f"and <= {upper[0] + 0.0:.6g}",
            witness=(support(self.bound_comb[lo_row]), support(self.bound_comb[hi_row])),
        )

    def complete(self, value: np.ndarray, y: np.ndarray, current: np.ndarray) -> np.ndarray:
        """:func:`back_substitute` of many records at once, each with the
        target at its ``value`` and the rule that keeps each variable's
        ``current`` value, clamped into its slice.  Row i of ``current``
        and of the result lists record i's unknowns in :attr:`unknown`
        order, and row i of ``y`` holds its ``slice_comb`` rows, then its
        ``substitution_comb`` rows, applied to its reduced constants.  In
        reverse elimination order, each projected variable's slice rows
        bound it at the values resolved so far, in one matrix product
        (:func:`read_bounds`; crossed bounds meet at their midpoint,
        whatever the width), and then each pivot takes its substitution
        row's value.  Nothing here judges feasibility: the caller checks
        the completed records against their edits.  Unknowns no edit
        constrains keep their current value."""
        values = np.array(current, dtype=float)
        values[:, self.unknown.index(self.target)] = value
        for var in dict.fromkeys(self.slice_var[::-1].tolist()):
            at = np.flatnonzero(self.slice_var == var)
            coef = self.slice_coef[at]
            values[:, var] = 0.0  # drops var's own term from the product
            lower, upper, _ = read_bounds(y[:, at] + values @ coef.T, coef[:, var])
            values[:, var] = np.minimum(np.maximum(current[:, var], lower), upper)
        at = len(self.slice_var)
        for k in range(len(self.substitution_var) - 1, -1, -1):
            values[:, self.substitution_var[k]] = y[:, at + k] + values @ self.substitution_coef[k]
        return values


def read_bounds(const: np.ndarray, coef: np.ndarray, scale: np.ndarray | None = None, mass: np.ndarray | None = None):
    """Lower and upper bound per record i, and each row's bound, of a
    variable ``x`` under rows ``coef[k] x + const[i, k] >= 0`` (``coef``
    nonzero).  Crossed bounds meet at their midpoint.

    Given the records' margin scales ``scale`` and the rows' masses
    ``mass`` (:attr:`CompiledInterval.bound_mass`), a crossing is judged
    as the check row one more projection step would derive: each row k
    is loosened by its own margin, ``DEFAULT_TOL * scale * mass[k]``, and
    the bounds meet only where the loosened rows still overlap, at the
    midpoint clamped into that overlap; a wider crossing stays as it is:
    empty.  The loosened rows are computed for crossed records only.  The
    bounds are laid out column-major, so each extreme reduces down the
    records axis (see :func:`calimp.edits.record_scale`)."""
    bounds = np.divide(-const, coef, order="F")
    lower = np.max(bounds, axis=1, where=coef > 0, initial=NEG_INF)
    upper = np.min(bounds, axis=1, where=coef < 0, initial=POS_INF)
    crossed = np.flatnonzero(lower > upper)
    if crossed.size:
        point = 0.5 * (lower[crossed] + upper[crossed])
        if scale is not None:
            loose = bounds[crossed] - np.outer(DEFAULT_TOL * scale[crossed], mass / coef)
            lo = np.max(loose, axis=1, where=coef > 0, initial=NEG_INF)
            hi = np.min(loose, axis=1, where=coef < 0, initial=POS_INF)
            meet = lo <= hi
            crossed, point = crossed[meet], np.minimum(np.maximum(point[meet], lo[meet]), hi[meet])
        lower[crossed] = upper[crossed] = point
    return lower, upper, bounds


def compile_interval(
    A: np.ndarray, is_eq: np.ndarray, names: Sequence[str], unknown: Collection[str], target: str
) -> CompiledInterval:
    """The :class:`CompiledInterval` of ``target`` for records whose
    unknown variables are ``unknown``.

    ``A`` and ``is_eq`` are the full system's coefficient matrix and
    equality flags (:func:`calimp.edits.system_matrices`), and ``names``
    labels the columns of ``A``; a variable that no column carries is in
    no edit.  The known variables' values enter only through the reduced
    constants at evaluation time.  The derivation computes on coefficient
    lists over the unknowns sorted by name, so taking the first extreme
    entry breaks ties by name.  An edit with no unknown variable is left
    out: its records must already meet it to ``violation_matrix``'s
    margin.
    """
    n = len(A)
    order = tuple(sorted({*unknown, target}))
    at = order.index(target)
    column = {v: j for j, v in enumerate(names)}
    # The appended zero column stands for every variable outside ``names``.
    U = np.hstack([A, np.zeros((n, 1))])[:, [column.get(v, -1) for v in order]]
    eye = np.eye(n)
    work = [(coeffs, eye[k], eq) for k, (coeffs, eq) in enumerate(zip(U.tolist(), is_eq.tolist())) if any(coeffs)]
    checks: list[tuple[np.ndarray, bool, str]] = []

    # Equalities, as in eliminate_equalities (each row has one combination).
    stack: list[tuple[int, list[float], np.ndarray]] = []
    pinned = False
    while (eq_pos := next((i for i, row in enumerate(work) if row[2]), None)) is not None:
        eq, eq_comb, _ = work.pop(eq_pos)
        mags = [0.0 if i == at else abs(c) for i, c in enumerate(eq)]
        pivot = mags.index(max(mags))
        if not mags[pivot]:
            # Only the target remains: pin it with a bound pair.
            work[eq_pos:eq_pos] = [(eq, eq_comb, False), ([-c for c in eq], -eq_comb, False)]
            pinned = True
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
        expr[pivot] = 0.0
        stack.append((pivot, expr, expr_comb))

    # Projection, as in fourier_motzkin_eliminate on the merged rows; the
    # next variable is the one in fewest rows, as in _elimination_order.
    rows = _merge_parallel([(coeffs, comb[None, :]) for coeffs, comb, _ in work])
    slices: list[tuple[int, list[float], np.ndarray]] = []
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
        slices.extend((var, coeffs, comb) for coeffs, combs in lowers + uppers for comb in combs)
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

    def matrix(rows: list, width: int = n) -> np.ndarray:
        return np.array(rows, dtype=float).reshape(len(rows), width)

    bound_coef = [coeffs[at] for coeffs, combs in rows for _ in combs]
    bound_comb = matrix([comb for _, combs in rows for comb in combs])
    check_comb = matrix([c for c, _, _ in checks])
    return CompiledInterval(
        target=target,
        pinned=pinned,
        unknown=order,
        bound_coef=np.array(bound_coef, dtype=float),
        bound_comb=bound_comb,
        bound_mass=np.abs(bound_comb).sum(axis=1),
        check_comb=check_comb,
        check_eq=np.array([e for _, e, _ in checks], dtype=bool),
        check_reason=tuple(r for _, _, r in checks),
        check_mass=np.abs(check_comb).sum(axis=1),
        slice_var=np.array([var for var, _, _ in slices], dtype=np.intp),
        slice_coef=matrix([coeffs for _, coeffs, _ in slices], len(order)),
        slice_comb=matrix([comb for _, _, comb in slices]),
        substitution_var=np.array([var for var, _, _ in stack], dtype=np.intp),
        substitution_coef=matrix([expr for _, expr, _ in stack], len(order)),
        substitution_comb=matrix([expr_comb for _, _, expr_comb in stack]),
    )


class Derivations:
    """Every :class:`CompiledInterval` of one system ``A``, ``is_eq`` over
    the variables ``names``, compiled once per (block, target) on first use.

    A target's block (:meth:`blocks`) gives the interval its whole unknown
    pattern would: rows outside it share no unknown with rows inside it, so
    they never combine, and the block's rows keep their relative order
    through every substitution, projection and merge.  Its bound rows,
    their masses and ``pinned`` are those of the pattern's derivation; only
    the check rows of the pattern's other blocks drop out.

    This is the split of an edit system into independent blocks that
    ``editrules`` makes before error localization (de Jonge & van der Loo,
    ``blocks`` and ``separate``; de Waal, Pannekoek & Scholtus 2011,
    *Handbook of Statistical Data Editing and Imputation*).
    """

    def __init__(self, A: np.ndarray, is_eq: np.ndarray, names: Sequence[str]):
        self.A, self.is_eq, self.names = A, is_eq, tuple(names)
        self.reads = (A != 0).astype(float)
        self.cache: dict[tuple[bytes, str], CompiledInterval] = {}

    def blocks(self, patterns: np.ndarray, target: str) -> np.ndarray:
        """Each unknown pattern's block of ``target`` (patterns x
        ``names``): from the target, take the pattern's unknowns
        that an edit reading the block reads, until the block stops
        growing.  Such an edit reads an unknown, a block variable, so no
        edit that reads only known values joins two unknowns; a target in
        no edit is a block of its own.  All patterns grow at once, as
        matrix products."""
        R = self.reads
        start = blocks = patterns & np.array([v == target for v in self.names], dtype=bool)
        size = -1
        while size != (size := np.count_nonzero(blocks)):
            blocks = ((blocks @ R.T > 0) @ R > 0) & patterns | start
        return blocks

    def __call__(self, block: np.ndarray, target: str) -> CompiledInterval:
        """``target``'s derivation over the unknowns ``block``, a row over ``names``."""
        key = (block.tobytes(), target)
        if key not in self.cache:
            unknown = [v for v, inside in zip(self.names, block) if inside]
            self.cache[key] = compile_interval(self.A, self.is_eq, self.names, unknown, target)
        return self.cache[key]
