"""Linear edit rules: parsing, evaluation, and per-record reduction.

An edit is a linear restriction a record must satisfy, stored in the
canonical form ``sum_j coeffs[j] * x_j + constant  (= | >=)  0``.  Rule
files use one rule per line, ``expr (=|>=|<=) expr`` with ``#`` comments;
``<=`` rules are flipped into the canonical ``>=`` orientation at parse
time and strict inequalities are rejected.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import EditSyntaxError, InfeasibleRecordError

#: Relative tolerance of every edit check (see :func:`record_scale`).
DEFAULT_TOL = 1e-9

#: Relative threshold below which a coefficient is treated as exactly zero.
COEFF_EPS = 1e-12

#: Records :func:`violation_matrix` checks at once: its temporaries are a
#: block's, so its working set stays within a core's cache and its memory
#: beyond the result does not grow with the data (with 11 edits, one
#: block's residuals take 720 KB).
CHECK_BLOCK = 8192


class EditKind(enum.Enum):
    EQUALITY = "equality"
    INEQUALITY = "inequality"


@dataclass(frozen=True)
class Edit:
    """One linear restriction in canonical form.

    ``coeffs`` maps variable names to nonzero coefficients; ``constant`` is
    the additive term.  Equalities read ``a.x + b = 0`` and inequalities
    ``a.x + b >= 0``.  Instances are treated as immutable.
    """

    coeffs: dict[str, float]
    constant: float
    kind: EditKind

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("an edit needs at least one nonzero coefficient")

    def residual(self, row: Mapping[str, float]) -> float:
        """``a.x + b`` at the given full assignment."""
        return math.fsum(c * row[v] for v, c in self.coeffs.items()) + self.constant

    def is_satisfied(self, row: Mapping[str, float], tol: float, scale: float) -> bool:
        r = self.residual(row)
        if self.kind is EditKind.EQUALITY:
            return abs(r) <= tol * scale
        return r >= -tol * scale


@dataclass(frozen=True)
class EditSystem:
    """An ordered collection of edits over a fixed, ordered variable set."""

    edits: tuple[Edit, ...]
    variables: tuple[str, ...]

    def __post_init__(self):
        known = set(self.variables)
        for edit in self.edits:
            missing = [v for v in edit.coeffs if v not in known]
            if missing:
                raise ValueError(f"edit references unknown variable(s) {missing}")

    def __len__(self) -> int:
        return len(self.edits)


@dataclass(frozen=True)
class ReducedSystem:
    """Edits of one record with its observed values folded into the constants.

    Only the record's still-unknown variables appear.  ``scale`` is the
    record's margin scale (:func:`record_scale`): its edits hold to
    ``DEFAULT_TOL`` times it.
    """

    edits: tuple[Edit, ...]
    scale: float = 1.0

    def variables(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for edit in self.edits:
            for v in edit.coeffs:
                seen.setdefault(v)
        return tuple(seen)


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|==|[=<>+\-*])
    """,
    re.VERBOSE,
)


def _tokenize(text: str, lineno: int) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise EditSyntaxError(f"unknown token {text[pos]!r}", lineno, pos + 1)
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        tokens.append((kind, m.group(), m.start() + 1))
    return tokens


class _LineParser:
    """Recursive-descent parser for one rule line."""

    def __init__(self, tokens: list[tuple[str, str, int]], lineno: int):
        self.tokens = tokens
        self.lineno = lineno
        self.i = 0

    def error(self, message: str):
        col = self.tokens[self.i][2] if self.i < len(self.tokens) else (self.tokens[-1][2] if self.tokens else 1)
        raise EditSyntaxError(message, self.lineno, col)

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self) -> Edit:
        lhs = self.parse_expr()
        kind, op, relation = self.take()
        if kind != "op" or op not in ("=", ">=", "<=", ">", "<", "=="):
            self.i -= 1
            self.error("expected a relation (=, >= or <=)")
        if op in (">", "<"):
            self.i -= 1
            self.error(f"strict inequality {op!r} is not allowed; use {op + '='!r}")
        if op == "==":
            self.i -= 1
            self.error("unexpected '=='; write '=' for a balance edit")
        rhs = self.parse_expr()
        if self.i != len(self.tokens):
            self.error("unexpected trailing input")

        # lhs - rhs (= | >=) 0, or rhs - lhs >= 0 for "<=": the side taken
        # with a plus sign is merged first, which fixes the coefficient order.
        plus, minus = (rhs, lhs) if op == "<=" else (lhs, rhs)
        coeffs: dict[str, float] = {}
        for (side, _), sign in ((plus, 1.0), (minus, -1.0)):
            for v, c in side.items():
                coeffs[v] = coeffs.get(v, 0.0) + sign * c
        const = plus[1] - minus[1]
        overflow = [f"the coefficient of {v!r}" for v, c in coeffs.items() if not math.isfinite(c)]
        if not math.isfinite(const):
            overflow.append("the constant")
        if overflow:
            raise EditSyntaxError(f"{overflow[0]} overflows a float once the terms are merged", self.lineno, relation)

        coeffs = {v: c for v, c in coeffs.items() if c != 0.0}
        if not coeffs:
            self.error("rule involves no variables after simplification")
        kind_ = EditKind.EQUALITY if op == "=" else EditKind.INEQUALITY
        return Edit(coeffs, const, kind_)

    def parse_expr(self) -> tuple[dict[str, float], float]:
        coeffs: dict[str, float] = {}
        const = 0.0
        sign = 1.0
        kind, val, _ = self.peek()
        if kind == "op" and val in ("+", "-"):
            self.take()
            sign = -1.0 if val == "-" else 1.0
        while True:
            c, v = self.parse_term()
            if v is None:
                const += sign * c
            else:
                coeffs[v] = coeffs.get(v, 0.0) + sign * c
            kind, val, _ = self.peek()
            if kind == "op" and val in ("+", "-"):
                self.take()
                sign = -1.0 if val == "-" else 1.0
                continue
            return coeffs, const

    def parse_term(self) -> tuple[float, str | None]:
        kind, val, _ = self.peek()
        if kind == "number":
            number = float(val)
            if math.isinf(number):
                self.error(f"number {val} overflows a float")
            self.take()
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                kind, val, _ = self.peek()
                if kind != "ident":
                    self.error("expected a variable name after '*'")
                self.take()
                return number, val
            if kind == "ident":
                self.take()
                return number, val
            return number, None
        if kind == "ident":
            self.take()
            return 1.0, val
        self.error("expected a number or variable name")


def parse_edit_rules(text: str) -> EditSystem:
    """Parse rule source into a canonical :class:`EditSystem`.

    Variables are ordered by first appearance; edit order follows the file.
    """
    edits: list[Edit] = []
    variables: dict[str, None] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = _tokenize(line, lineno)
        edit = _LineParser(tokens, lineno).parse()
        edits.append(edit)
        for v in edit.coeffs:
            variables.setdefault(v)
    return EditSystem(tuple(edits), tuple(variables))


def _format_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def format_edit_rules(system: EditSystem) -> str:
    """Render a system back to rule source; parses back to the same system."""
    lines = []
    for edit in system.edits:
        parts: list[str] = []
        for v, c in edit.coeffs.items():
            mag = abs(c)
            term = v if mag == 1.0 else f"{_format_number(mag)}*{v}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {term}")
        if edit.constant != 0.0:
            b = edit.constant
            parts.append(f"{'+' if b > 0 else '-'} {_format_number(abs(b))}")
        rel = "=" if edit.kind is EditKind.EQUALITY else ">="
        lines.append(" ".join(parts) + f" {rel} 0")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Evaluation and reduction

def check_record(system: EditSystem, row: Mapping[str, float]) -> list[int]:
    """Indices of the edits violated by a fully-assigned record."""
    missing = [v for v in system.variables if v not in row]
    if missing:
        raise ValueError(f"row is missing value(s) for {missing}")
    values = np.array([[row[v] for v in system.variables]], dtype=float)
    return np.flatnonzero(violation_matrix(system, values, system.variables)[0]).tolist()


def reduce_system(
    system: EditSystem,
    row: Mapping[str, float],
    origin: int | None = None,
) -> ReducedSystem:
    """Fold a record's known values into the edits.

    Edits left with no variables are dropped when satisfied; a violated one
    means the record contradicts the edits and raises
    :class:`InfeasibleRecordError`, naming the record index ``origin``
    when it is given.  Satisfied means to :func:`violation_matrix`'s
    margin, ``DEFAULT_TOL`` times the record's :func:`record_scale`.
    """
    referenced = {v for edit in system.edits for v in edit.coeffs}
    scale = float(record_scale(np.array([x for v, x in row.items() if v in referenced])))
    margin = DEFAULT_TOL * scale
    reduced: list[Edit] = []
    for k, edit in enumerate(system.edits):
        free: dict[str, float] = {}
        const = edit.constant
        for v, c in edit.coeffs.items():
            if v in row:
                const += c * row[v]
            else:
                free[v] = c
        if free:
            reduced.append(Edit(free, const, edit.kind))
            continue
        if abs(const) > margin if edit.kind is EditKind.EQUALITY else const < -margin:
            raise InfeasibleRecordError(
                f"record{'' if origin is None else ' ' + str(origin)} violates edit {k} (residual {const:.6g})",
                record=origin,
                edit_index=k,
                witness=edit,
            )
    return ReducedSystem(tuple(reduced), scale)


# ---------------------------------------------------------------------------
# Vectorized helpers for whole data matrices

def system_matrices(system: EditSystem, columns: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficient matrix, constants, and an equality flag per edit.

    Rows follow edit order; columns follow ``columns``, which must cover
    every variable of the system.
    """
    index = {name: j for j, name in enumerate(columns)}
    A = np.zeros((len(system.edits), len(columns)))
    b = np.zeros(len(system.edits))
    is_eq = np.zeros(len(system.edits), dtype=bool)
    for k, edit in enumerate(system.edits):
        for v, c in edit.coeffs.items():
            if v not in index:
                raise ValueError(f"edit variable {v!r} not among columns")
            A[k, index[v]] = c
        b[k] = edit.constant
        is_eq[k] = edit.kind is EditKind.EQUALITY
    return A, b, is_eq


def record_scale(values: np.ndarray) -> np.ndarray:
    """Each record's margin scale, ``max(1, max |x_j|)`` over the last axis
    of ``values``, NaN (unknown) skipped: an edit holds to ``DEFAULT_TOL``
    times it.  ``values`` holds the records' values of the variables some
    edit references: a (records x variables) matrix, or one record's row.

    A per-record pass reduces down the records axis: numpy reduces a
    record's few entries about ten times faster when they lie column-major
    than along a C-ordered row, so the magnitudes are laid out that way.
    Max, min and any are exact: the layout changes no bit of a result."""
    return np.fmax.reduce(np.abs(values, order="F"), axis=-1, initial=1.0)


def violated(resid: np.ndarray, is_eq: np.ndarray, margin: np.ndarray) -> np.ndarray:
    """Whether residuals ``a.x + b`` break their edits: ``|r| > margin`` for
    equalities, ``r < -margin`` for inequalities (arguments broadcast).
    ``|r| > m`` is ``r < -m`` or ``r > m``: negation is exact."""
    return (resid < -margin) | (is_eq & (resid > margin))


def violation_matrix(system: EditSystem, values: np.ndarray, columns: Sequence[str]) -> np.ndarray:
    """Boolean (records x edits) matrix of violated edits.

    NaN marks an unknown value: an edit is checked only for the records
    that know all of its variables.  The margin is ``DEFAULT_TOL * max(1,
    max |x_j|)`` over the record's known values of the variables some edit
    references (:func:`record_scale`).  The matrix is column-major, so a
    reduction per record, such as ``.any(axis=1)``, runs down its columns.

    Records are checked :data:`CHECK_BLOCK` at a time into the one result.
    A record's verdicts read its own row only, so the blocks change none,
    but for a residual within a rounding of its margin: BLAS may round a
    block of one row (or a system of one edit) by another path.
    """
    A, b, is_eq = system_matrices(system, columns)
    X = np.asarray(values, dtype=float)
    bad = np.empty((len(X), len(b)), dtype=bool, order="F")
    for start in range(0, len(X), CHECK_BLOCK):
        rows = slice(start, start + CHECK_BLOCK)
        unknown = np.isnan(X[rows])
        if unknown.any():
            # Zeros keep unknowns out of the scale; the mask drops their edits.
            bad[rows] = violations(A, b, is_eq, np.where(unknown, 0.0, X[rows]))[0] & ~reads_flagged(unknown, A)
        else:
            bad[rows] = violations(A, b, is_eq, X[rows])[0]
    return bad


def reads_flagged(flags: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Boolean (records x edits) matrix, column-major: whether each edit,
    a row of ``A`` (:func:`system_matrices`), reads a variable that
    ``flags`` (records x columns of ``A``) marks for the record.  It counts
    each edit's flagged variables as a float product: a boolean product
    runs numpy's generic loop at twice the cost."""
    return np.greater(flags @ (A != 0).T.astype(float), 0.0, order="F")


def violations(A: np.ndarray, b: np.ndarray, is_eq: np.ndarray, X: np.ndarray):
    """The rule of :func:`violation_matrix` on complete records ``X`` over
    the columns of ``A`` (:func:`system_matrices`): the (records x edits)
    matrix of violated edits, and each record's margin, ``DEFAULT_TOL``
    times its :func:`record_scale` over the columns some edit references.
    The matrix is laid out column-major: each comparison with a record's
    margin then runs down the records axis, not along a row of a few
    edits."""
    margin = DEFAULT_TOL * record_scale(X[:, np.any(A != 0, axis=0)])
    return violated(np.add(X @ A.T, b, order="F"), is_eq, margin[:, None]), margin


def reduced_constants(A: np.ndarray, b: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Edit constants with each record's known values folded in.

    ``X`` holds one record per row over the columns of ``A`` (from
    :func:`system_matrices`), NaN where a value is unknown.  Returns the
    reduced constants ``b + A x_known`` (records x edits), all that the
    compiled derivation (``fm.CompiledInterval``) reads of a record but
    its margin scale.  :func:`reduce_system`, the tests' reference, folds
    them one record at a time.
    """
    return np.where(np.isnan(X), 0.0, X) @ A.T + b
