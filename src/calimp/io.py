"""File formats: delimited datasets, mask files, totals, key-value configs.

Datasets are comma-separated with a header row; an empty field or the
literal ``NA`` marks a missing value, and an optional ``__weight`` column
carries per-record weights.  Floats are serialized with ``repr`` so a
write/read round trip reproduces every value bit for bit.
"""

from __future__ import annotations

import csv
import io as _io
import math
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping

import numpy as np

from .errors import DataFormatError
from .pipeline import DataMatrix

MISSING_MARKERS = ("", "NA")
WEIGHT_COLUMN = "__weight"
#: Rows :func:`write_dataset` formats at once: the floats of one block
#: exist as Python objects together, so memory does not grow with the file.
WRITE_BLOCK = 4096


def _read_csv(handle: IO[str], empty: str) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """The stripped header of a CSV file and an iterator over its other
    rows, one at a time: each row's line number and stripped fields.  Blank
    rows are skipped; a row whose field count differs from the header's is
    an error, as is a file without a header (message ``empty``)."""
    reader = csv.reader(handle)
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise DataFormatError(empty, line=1) from None

    def rows() -> Iterator[tuple[int, list[str]]]:
        for lineno, raw in enumerate(reader, start=2):
            if not raw or (len(raw) == 1 and not raw[0].strip()):
                continue
            if len(raw) != len(header):
                raise DataFormatError(f"expected {len(header)} fields, found {len(raw)}", line=lineno)
            yield lineno, [cell.strip() for cell in raw]

    return header, rows()


def _write_csv(path: str | Path, header: list[str], rows: Iterable[list[str]]) -> None:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    Path(path).write_text(buf.getvalue())


def read_dataset(path: str | Path) -> DataMatrix:
    """Load a dataset file; the mask reflects the missing markers."""
    with Path(path).open(newline="") as handle:
        header, records = _read_csv(handle, "empty file, expected a header row")
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise DataFormatError(f"duplicate header name(s) {dupes}", line=1)
        try:
            w_col = header.index(WEIGHT_COLUMN)
        except ValueError:
            w_col = None
        columns = [h for i, h in enumerate(header) if i != w_col]

        rows: list[list[float]] = []
        weights: list[float] = []
        for lineno, cells in records:
            out_row: list[float] = []
            for i, cell in enumerate(cells):
                if i == w_col:
                    try:
                        w = float(cell)
                    except ValueError:
                        raise DataFormatError(f"bad weight {cell!r}", line=lineno) from None
                    if not math.isfinite(w) or w <= 0:
                        raise DataFormatError(f"weights must be positive, got {cell!r}", line=lineno)
                    weights.append(w)
                    continue
                if cell in MISSING_MARKERS:
                    out_row.append(math.nan)
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise DataFormatError(f"bad numeric field {cell!r}", line=lineno) from None
                if not math.isfinite(value):
                    raise DataFormatError(f"non-finite value {cell!r}", line=lineno)
                out_row.append(value)
            rows.append(out_row)
    if not rows:
        raise DataFormatError("no records")
    values = np.array(rows, dtype=float)
    return DataMatrix(
        values=values,
        mask=np.isnan(values),
        columns=tuple(columns),
        weights=np.array(weights) if w_col is not None else None,
    )


def write_dataset(data: DataMatrix, path: str | Path, missing_from_mask: bool = False) -> None:
    """Write values (NaN as ``NA``); optionally re-blank the masked cells.

    The ``__weight`` column is included only when some weight differs
    from 1.
    """
    with_weights = bool(np.any(data.weights != 1.0))
    values = np.where(data.mask, math.nan, data.values) if missing_from_mask else data.values
    if with_weights:
        values = np.column_stack([values, data.weights])
    buf = _io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(list(data.columns) + ([WEIGHT_COLUMN] if with_weights else []))
    # A float's repr needs no CSV quoting, and only NaN's contains "nan":
    # the header is written apart, so a column name keeps its "nan".  One
    # format operation writes a block of rows.
    line = ",".join(["%r"] * values.shape[1]) + "\n"
    for start in range(0, len(values), WRITE_BLOCK):
        block = values[start : start + WRITE_BLOCK]
        buf.write((line * len(block) % tuple(block.ravel().tolist())).replace("nan", "NA"))
    Path(path).write_text(buf.getvalue())


def read_mask(path: str | Path, columns: Iterable[str] | None = None) -> np.ndarray:
    """Load a 0/1 mask file; optionally verify its header."""
    with Path(path).open(newline="") as handle:
        header, records = _read_csv(handle, "empty mask file")
        if columns is not None and header != list(columns):
            raise DataFormatError(
                f"mask columns {header} do not match dataset columns {list(columns)}", line=1
            )
        rows = []
        for lineno, cells in records:
            if any(cell not in ("0", "1") for cell in cells):
                raise DataFormatError("mask cells must be 0 or 1", line=lineno)
            rows.append([cell == "1" for cell in cells])
    if not rows:
        raise DataFormatError("no records in mask file")
    return np.array(rows, dtype=bool)


def write_mask(mask: np.ndarray, columns: Iterable[str], path: str | Path) -> None:
    rows = (["1" if cell else "0" for cell in row] for row in np.asarray(mask, dtype=bool))
    _write_csv(path, list(columns), rows)


def _key_value_lines(
    path: str | Path, key: str, missing: str, duplicate: str
) -> Iterator[tuple[int, str, str]]:
    """Line number, key and value of each ``key = value`` line; text after
    ``#`` is a comment.  ``key`` names the keys in the message for a line
    without ``=``; ``missing`` is the message for an empty key and
    ``duplicate`` precedes a repeated key in its message."""
    seen: set[str] = set()
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"expected '{key} = value'", line=lineno)
        name, _, value = line.partition("=")
        name = name.strip()
        if not name:
            raise DataFormatError(missing, line=lineno)
        if name in seen:
            raise DataFormatError(f"{duplicate} {name!r}", line=lineno)
        seen.add(name)
        yield lineno, name, value.strip()


def read_totals(path: str | Path) -> dict[str, float]:
    """Lines of ``column = value``; comments start with ``#``."""
    totals: dict[str, float] = {}
    for lineno, name, value in _key_value_lines(path, "column", "missing column name", "duplicate total for"):
        try:
            total = float(value)
        except ValueError:
            raise DataFormatError(f"bad total {value!r}", line=lineno) from None
        if not math.isfinite(total):
            raise DataFormatError(f"non-finite total {value!r}", line=lineno)
        totals[name] = total
    return totals


def write_totals(totals: Mapping[str, float], path: str | Path) -> None:
    lines = [f"{name} = {repr(float(value))}" for name, value in totals.items()]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_predictors(path: str | Path) -> dict[str, list[str]]:
    """Chain predictors, one ``target: a, b`` line per target; comments
    start with ``#``.  An empty list after the colon gives the target an
    intercept-only model.  The names are checked against the data where
    they are used (``pipeline.check_inputs``)."""
    predictors: dict[str, list[str]] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise DataFormatError("expected 'target: predictor, ...'", line=lineno)
        target, _, rest = line.partition(":")
        target = target.strip()
        if not target:
            raise DataFormatError("missing target name", line=lineno)
        if target in predictors:
            raise DataFormatError(f"duplicate predictors for {target!r}", line=lineno)
        names = [name.strip() for name in rest.split(",")] if rest.strip() else []
        if not all(names):
            raise DataFormatError(f"empty predictor name for {target!r}", line=lineno)
        predictors[target] = names
    return predictors


def read_config(path: str | Path) -> dict[str, str]:
    """Plain ``key = value`` configuration lines; comments start with ``#``."""
    return {name: value for _, name, value in _key_value_lines(path, "key", "missing key", "duplicate key")}
