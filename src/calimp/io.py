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
from typing import Iterable, Mapping

import numpy as np

from .errors import DataFormatError
from .pipeline import DataMatrix

MISSING_MARKERS = ("", "NA")
WEIGHT_COLUMN = "__weight"


def _format_value(x: float) -> str:
    if math.isnan(x):
        return "NA"
    return repr(float(x))


def read_dataset(path: str | Path) -> DataMatrix:
    """Load a dataset file; the mask reflects the missing markers."""
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError("empty file, expected a header row", line=1) from None
        header = [h.strip() for h in header]
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
        for lineno, raw in enumerate(reader, start=2):
            if not raw or (len(raw) == 1 and not raw[0].strip()):
                continue
            if len(raw) != len(header):
                raise DataFormatError(
                    f"expected {len(header)} fields, found {len(raw)}", line=lineno
                )
            out_row: list[float] = []
            for i, cell in enumerate(raw):
                cell = cell.strip()
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
    path = Path(path)
    with_weights = bool(np.any(data.weights != 1.0))
    values = data.values.copy()
    if missing_from_mask:
        values[data.mask] = math.nan
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = list(data.columns) + ([WEIGHT_COLUMN] if with_weights else [])
    writer.writerow(header)
    for i in range(values.shape[0]):
        row = [_format_value(v) for v in values[i]]
        if with_weights:
            row.append(repr(float(data.weights[i])))
        writer.writerow(row)
    path.write_text(buf.getvalue())


def read_mask(path: str | Path, columns: Iterable[str] | None = None) -> np.ndarray:
    """Load a 0/1 mask file; optionally verify its header."""
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataFormatError("empty mask file", line=1) from None
        if columns is not None and header != list(columns):
            raise DataFormatError(
                f"mask columns {header} do not match dataset columns {list(columns)}", line=1
            )
        rows = []
        for lineno, raw in enumerate(reader, start=2):
            if not raw or (len(raw) == 1 and not raw[0].strip()):
                continue
            if len(raw) != len(header):
                raise DataFormatError(f"expected {len(header)} fields, found {len(raw)}", line=lineno)
            cells = [cell.strip() for cell in raw]
            if any(cell not in ("0", "1") for cell in cells):
                raise DataFormatError("mask cells must be 0 or 1", line=lineno)
            rows.append([cell == "1" for cell in cells])
    if not rows:
        raise DataFormatError("no records in mask file")
    return np.array(rows, dtype=bool)


def write_mask(mask: np.ndarray, columns: Iterable[str], path: str | Path) -> None:
    path = Path(path)
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(columns))
    for row in np.asarray(mask, dtype=bool):
        writer.writerow(["1" if cell else "0" for cell in row])
    path.write_text(buf.getvalue())


def read_totals(path: str | Path) -> dict[str, float]:
    """Lines of ``column = value``; comments start with ``#``."""
    path = Path(path)
    totals: dict[str, float] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError("expected 'column = value'", line=lineno)
        name, _, value = line.partition("=")
        name = name.strip()
        if not name:
            raise DataFormatError("missing column name", line=lineno)
        if name in totals:
            raise DataFormatError(f"duplicate total for {name!r}", line=lineno)
        try:
            total = float(value.strip())
        except ValueError:
            raise DataFormatError(f"bad total {value.strip()!r}", line=lineno) from None
        if not math.isfinite(total):
            raise DataFormatError(f"non-finite total {value.strip()!r}", line=lineno)
        totals[name] = total
    return totals


def write_totals(totals: Mapping[str, float], path: str | Path) -> None:
    lines = [f"{name} = {repr(float(value))}" for name, value in totals.items()]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_config(path: str | Path) -> dict[str, str]:
    """Plain ``key = value`` configuration lines; comments start with ``#``."""
    path = Path(path)
    out: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError("expected 'key = value'", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise DataFormatError("missing key", line=lineno)
        if key in out:
            raise DataFormatError(f"duplicate key {key!r}", line=lineno)
        out[key] = value.strip()
    return out
