"""Output checks that do not rely on calimp's own validator.

Each edit system is written out here a second time as a plain matrix
``A x + b (= | >=) 0``, so a defect in calimp's parser or violation code
cannot hide a defect in its imputations.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

EDIT_RTOL = 1e-9
TOTAL_RTOL = 1e-8


@dataclass(frozen=True)
class EditMatrix:
    columns: tuple[str, ...]
    A: np.ndarray
    b: np.ndarray
    is_eq: np.ndarray

    @classmethod
    def from_rows(cls, columns, rows):
        """``rows`` holds ``(coeffs, constant, "=" or ">=")`` triples."""
        index = {name: j for j, name in enumerate(columns)}
        A = np.zeros((len(rows), len(columns)))
        for k, (coeffs, _, _) in enumerate(rows):
            for name, c in coeffs.items():
                A[k, index[name]] = c
        b = np.array([const for _, const, _ in rows], dtype=float)
        is_eq = np.array([kind == "=" for _, _, kind in rows])
        return cls(tuple(columns), A, b, is_eq)

    def violations(self, X: np.ndarray, rtol: float = EDIT_RTOL) -> np.ndarray:
        """Boolean (records x edits) violation matrix, relative to each record's
        largest absolute value (at least 1)."""
        resid = X @ self.A.T + self.b
        margin = rtol * np.maximum(1.0, np.abs(X).max(axis=1))[:, None]
        return np.where(self.is_eq[None, :], np.abs(resid) > margin, resid < -margin)


STUDY_COLUMNS = ("x1", "x2", "P")
STUDY_EDITS = EditMatrix.from_rows(
    STUDY_COLUMNS,
    [
        ({"x1": 1, "x2": 1, "P": -1}, 0.0, "="),
        ({"x1": 1, "x2": -1}, 0.0, ">="),
        ({"P": 1, "x2": -3}, 0.0, ">="),
        ({"x1": 1}, 0.0, ">="),
        ({"x2": 1}, 0.0, ">="),
        ({"P": 1}, 0.0, ">="),
    ],
)

SURVEY_COLUMNS = ("goods", "services", "turnover", "staff", "materials", "other", "costs", "profit")
SURVEY_RULES = """\
turnover = goods + services
costs = staff + materials + other
profit = turnover - costs
goods >= 0
services >= 0
staff >= 0
materials >= 0
other >= 0
costs <= 1.5*turnover
staff <= 0.8*costs
profit <= 0.6*turnover
"""
SURVEY_EDITS = EditMatrix.from_rows(
    SURVEY_COLUMNS,
    [
        ({"turnover": 1, "goods": -1, "services": -1}, 0.0, "="),
        ({"costs": 1, "staff": -1, "materials": -1, "other": -1}, 0.0, "="),
        ({"profit": 1, "turnover": -1, "costs": 1}, 0.0, "="),
        ({"goods": 1}, 0.0, ">="),
        ({"services": 1}, 0.0, ">="),
        ({"staff": 1}, 0.0, ">="),
        ({"materials": 1}, 0.0, ">="),
        ({"other": 1}, 0.0, ">="),
        ({"turnover": 1.5, "costs": -1}, 0.0, ">="),
        ({"costs": 0.8, "staff": -1}, 0.0, ">="),
        ({"turnover": 0.6, "profit": -1}, 0.0, ">="),
    ],
)


def check_output(
    out: np.ndarray,
    given: np.ndarray,
    mask: np.ndarray,
    edits: EditMatrix,
    totals: dict[int, float] | None,
    weights: np.ndarray | None = None,
) -> str | None:
    """Reason the imputed ``out`` is wrong, or None when every check holds.

    ``given`` holds the input values (NaN where ``mask`` is set); ``totals``
    maps column index to the weighted total that column must reproduce.
    """
    if out.shape != given.shape:
        return f"shape {out.shape} differs from input {given.shape}"
    if np.isnan(out).any():
        return "NaN left in the output"
    observed = ~mask
    if not np.array_equal(out[observed].view(np.uint64), given[observed].view(np.uint64)):
        return "an observed cell changed"
    bad = edits.violations(out)
    if bad.any():
        i, k = np.argwhere(bad)[0]
        return f"record {int(i)} violates edit {int(k)}"
    w = np.ones(out.shape[0]) if weights is None else weights
    for j, want in (totals or {}).items():
        got = float(w @ out[:, j])
        if abs(got - want) > TOTAL_RTOL * max(1.0, abs(want)):
            return f"column {j} sums to {got!r}, total is {want!r}"
    return None


def read_csv_values(path, columns: tuple[str, ...]) -> np.ndarray:
    """Values of a calimp output file; ``NA`` or empty reads as NaN."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if tuple(header) != columns:
            raise ValueError(f"unexpected header {header}")
        return np.array(
            [[float("nan") if cell in ("", "NA") else float(cell) for cell in row] for row in reader if row],
            dtype=float,
        )


def write_csv_values(path, columns: tuple[str, ...], values: np.ndarray) -> None:
    """Input file in calimp's dataset format, missing cells as ``NA``."""
    lines = [",".join(columns)]
    lines.extend(",".join("NA" if v != v else repr(float(v)) for v in row) for row in values)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def pattern_stats(mask: np.ndarray) -> dict:
    """Distinct missingness patterns of the records with a missing cell, and
    the computed chance that one ``mcmc.select_pair`` proposal hits:
    sum_j n_j (n_j - 1) / (J r (r - 1)) over the J columns with n_j >= 2."""
    r = mask.shape[0]
    rows = mask[mask.any(axis=1)]
    patterns, counts = np.unique(rows, axis=0, return_counts=True)
    per_pattern_cells = patterns.sum(axis=1) * counts
    n_j = mask.sum(axis=0).astype(float)
    eligible = n_j[n_j >= 2]
    hit = float(np.sum(eligible * (eligible - 1)) / (eligible.size * r * (r - 1))) if eligible.size else 0.0
    return {
        "records": int(r),
        "missing_cells": int(mask.sum()),
        "patterns": int(patterns.shape[0]),
        "missing_cells_per_pattern_mean": float(per_pattern_cells.mean()) if counts.size else 0.0,
        "missing_cells_per_pattern_max": int(per_pattern_cells.max()) if counts.size else 0,
        "records_per_pattern_median": float(np.median(counts)) if counts.size else 0.0,
        "select_pair_hit_probability_computed": hit,
    }
