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

#: Default relative tolerance for deciding whether an edit is satisfied.
DEFAULT_TOL = 1e-9

#: Relative threshold below which a coefficient is treated as exactly zero.
COEFF_EPS = 1e-12


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

    Only the record's still-unknown variables appear.  ``origin`` is the
    record index the reduction came from, when known.
    """

    edits: tuple[Edit, ...]
    origin: int | None = None

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
        lhs_coeffs, lhs_const = self.parse_expr()
        kind, op, _ = self.take()
        if kind != "op" or op not in ("=", ">=", "<=", ">", "<", "=="):
            self.i -= 1
            self.error("expected a relation (=, >= or <=)")
        if op in (">", "<"):
            self.i -= 1
            self.error(f"strict inequality {op!r} is not allowed; use {op + '='!r}")
        if op == "==":
            self.i -= 1
            self.error("unexpected '=='; write '=' for a balance edit")
        rhs_coeffs, rhs_const = self.parse_expr()
        if self.i != len(self.tokens):
            self.error("unexpected trailing input")

        coeffs: dict[str, float] = {}
        if op == "<=":
            # rhs - lhs >= 0
            for v, c in rhs_coeffs.items():
                coeffs[v] = coeffs.get(v, 0.0) + c
            for v, c in lhs_coeffs.items():
                coeffs[v] = coeffs.get(v, 0.0) - c
            const = rhs_const - lhs_const
        else:
            # lhs - rhs (= | >=) 0
            for v, c in lhs_coeffs.items():
                coeffs[v] = coeffs.get(v, 0.0) + c
            for v, c in rhs_coeffs.items():
                coeffs[v] = coeffs.get(v, 0.0) - c
            const = lhs_const - rhs_const

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
            self.take()
            number = float(val)
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

def check_record(system: EditSystem, row: Mapping[str, float], tol: float = DEFAULT_TOL) -> list[int]:
    """Indices of the edits violated by a fully-assigned record."""
    missing = [v for v in system.variables if v not in row]
    if missing:
        raise ValueError(f"row is missing value(s) for {missing}")
    values = np.array([[row[v] for v in system.variables]], dtype=float)
    return np.flatnonzero(violation_matrix(system, values, system.variables, tol)[0]).tolist()


def reduce_system(
    system: EditSystem,
    row: Mapping[str, float],
    origin: int | None = None,
) -> ReducedSystem:
    """Fold a record's known values into the edits.

    Edits left with no variables are dropped when satisfied; a violated one
    means the record contradicts the edits and raises
    :class:`InfeasibleRecordError`.
    """
    reduced: list[Edit] = []
    for k, edit in enumerate(system.edits):
        free: dict[str, float] = {}
        const = edit.constant
        gross = abs(edit.constant)
        for v, c in edit.coeffs.items():
            if v in row:
                term = c * row[v]
                const += term
                gross += abs(term)
            else:
                free[v] = c
        if free:
            reduced.append(Edit(free, const, edit.kind))
            continue
        bound = DEFAULT_TOL * max(1.0, gross)
        ok = abs(const) <= bound if edit.kind is EditKind.EQUALITY else const >= -bound
        if not ok:
            raise InfeasibleRecordError(
                f"record{'' if origin is None else ' ' + str(origin)} violates edit {k} "
                f"before imputation (residual {const:.6g})",
                record=origin,
                edit_index=k,
                witness=edit,
            )
    return ReducedSystem(tuple(reduced), origin=origin)


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


def violated(resid: np.ndarray, is_eq: np.ndarray, margin: np.ndarray) -> np.ndarray:
    """Whether residuals ``a.x + b`` break their edits: ``|r| > margin`` for
    equalities, ``r < -margin`` for inequalities (arguments broadcast)."""
    return np.where(is_eq, np.abs(resid) > margin, resid < -margin)


def violation_matrix(
    system: EditSystem,
    values: np.ndarray,
    columns: Sequence[str],
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Boolean (records x edits) matrix of violated edits.

    NaN marks an unknown value: an edit is checked only for the records
    that know all of its variables.  The margin is ``tol * max(1, max
    |x_j|)`` over the record's known values of the variables some edit
    references.
    """
    A, b, is_eq = system_matrices(system, columns)
    X = np.asarray(values, dtype=float)
    if np.isnan(X).any():
        # Zeros keep unknowns out of the scale; the mask drops their edits.
        unknown = np.isnan(X)
        return violation_matrix(system, np.where(unknown, 0.0, X), columns, tol) & ~(unknown @ (A != 0).T)
    scale = np.abs(X[:, np.any(A != 0, axis=0)]).max(axis=1, initial=1.0)
    return violated(X @ A.T + b, is_eq, tol * scale[:, None])


def reduced_constants(A: np.ndarray, b: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edit constants with each record's known values folded in.

    ``X`` holds one record per row over the columns of ``A`` (from
    :func:`system_matrices`), NaN where a value is unknown.  Returns the
    reduced constants ``b + A x_known`` and their gross magnitudes
    ``|b| + |A| |x_known|`` (records x edits), the same numbers
    :func:`reduce_system` folds and checks one record at a time.
    """
    X0 = np.where(np.isnan(X), 0.0, X)
    return X0 @ A.T + b, np.abs(X0) @ np.abs(A).T + np.abs(b)
