"""Exception hierarchy shared across the package."""

from __future__ import annotations

from typing import Sequence


class CalimpError(Exception):
    """Base class for every error raised by this package."""


class EditSyntaxError(CalimpError):
    """A rule file could not be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


class InfeasibleSystemError(CalimpError):
    """A constraint system admits no solution.

    ``witness`` carries whatever object exposed the contradiction (an edit,
    a pair of combined edits, or a derived bound), for diagnostics.
    """

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


class InfeasibleRecordError(InfeasibleSystemError):
    """Observed values of a record contradict the edits before any imputation."""

    def __init__(self, message: str, record=None, edit_index: int | None = None, witness=None):
        self.record = record
        self.edit_index = edit_index
        super().__init__(message, witness=witness)


class InfeasibleAdjustmentError(InfeasibleSystemError):
    """The zero-sum / interval adjustment problem has no feasible point."""


# Raised by nothing in calimp; kept because perfbench/workloads.py imports it.
class ConvergenceError(CalimpError):
    """An iterative solver did not converge within its iteration budget."""


class RankDeficiencyError(CalimpError):
    """The regression design matrix is rank deficient.

    ``columns`` names every dependent design column, in design order, when
    they are known; ``column`` is the first of them.
    """

    def __init__(self, message: str, columns: Sequence[str] = ()):
        self.columns = tuple(columns)
        self.column = self.columns[0] if self.columns else None
        super().__init__(message)


class InsufficientDataError(CalimpError):
    """Too few observations to fit the requested model."""


class InputCheckError(ValueError):
    """Inputs that do not fit each other, such as edits naming a column
    the data lacks.  ``inputs`` names the kinds of input the check read
    (``"data"``, ``"edits"``, ``"totals"``, ``"predictors"``), so that a
    caller can name their files."""

    def __init__(self, message: str, inputs: Sequence[str]):
        self.inputs = tuple(inputs)
        super().__init__(message)


class DataFormatError(CalimpError):
    """A data, totals, or config file is malformed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)
