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
from contextlib import contextmanager
from itertools import chain, islice
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, TypeVar

import numpy as np

from .errors import DataFormatError
from .pipeline import DataMatrix

MISSING_MARKERS = ("", "NA")
WEIGHT_COLUMN = "__weight"
#: Rows :func:`write_dataset` formats at once: the arrays and floats of
#: one block exist together, so memory does not grow with the file, and
#: a block's arrays stay small enough for the processor's caches.
WRITE_BLOCK = 512
#: Lines (CSV records, where csv reads them) :func:`read_dataset` and
#: :func:`read_mask` convert at once: numpy's C parse takes one block of
#: raw lines, and the plain pass (:func:`_csv_rows`) yields its rows in
#: lists of at most this many.
READ_BLOCK = 512
#: Text inputs are read as UTF-8, past a leading byte-order mark, which
#: spreadsheet exports often write; outputs are written as UTF-8.
ENCODING = "utf-8-sig"


_Cell = TypeVar("_Cell")


def _undecodable(path: str | Path, err: UnicodeDecodeError) -> DataFormatError:
    """The error for a byte of ``path`` that is not UTF-8, at its line.  A
    streamed read's offset counts from the decoder's chunk, so on this
    path only the whole file is decoded again (a byte-order mark is UTF-8
    too) and the newlines before the first bad byte counted."""
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as whole:
        line = raw.count(b"\n", 0, whole.start) + 1
        return DataFormatError(f"byte 0x{raw[whole.start]:02x} is not UTF-8 ({whole.reason})", line=line)
    return DataFormatError(str(err))  # the file changed after the failed read


@contextmanager
def _open_text(path: str | Path) -> Iterator[IO[str]]:
    """``path`` open as text, line endings as written; a byte that is not
    UTF-8 is a :class:`DataFormatError` at its line."""
    try:
        with Path(path).open(newline="", encoding=ENCODING) as handle:
            yield handle
    except UnicodeDecodeError as err:
        raise _undecodable(path, err) from None


def read_text(path: str | Path) -> str:
    """The whole text of ``path``, read as :func:`_open_text` reads it."""
    with _open_text(path) as handle:
        return handle.read()


def _blank(raw: list[str]) -> bool:
    return not raw or (len(raw) == 1 and not raw[0].strip())


def _csv_header(reader: Iterator[list[str]], empty: str) -> list[str]:
    """The stripped first row of a CSV file; a file without one is an
    error (message ``empty``), and so are a CSV error in it and an empty
    name, at line 1.  An empty line is one empty name, as a line of
    spaces is."""
    try:
        header = [h.strip() for h in next(reader)] or [""]
    except StopIteration:
        raise DataFormatError(empty, line=1) from None
    except csv.Error as err:
        raise DataFormatError(str(err), line=1) from None
    if "" in header:
        raise DataFormatError(f"header field {header.index('') + 1} has no name", line=1)
    return header


def _csv_rows(
    reader: Iterator[list[str]], cells: list[Callable[[str], _Cell]], line: int = 2
) -> Iterator[list[list[_Cell]]]:
    """The non-blank rows of ``reader`` in lists of at most
    :data:`READ_BLOCK`, each stripped field converted by its column's
    function in ``cells``, which raises a :class:`DataFormatError` without
    a line for a bad field.  Line numbers count CSV records from ``line``, blank rows
    included.  The first bad field count, field or CSV error (such as a
    field past csv's size limit) in file order is a
    :class:`DataFormatError` at the line of its record."""
    width = len(cells)
    rows: list[list[_Cell]] = []
    line -= 1
    try:
        for raw in reader:
            line += 1
            if _blank(raw):
                continue
            if len(raw) != width:
                raise DataFormatError(f"expected {width} fields, found {len(raw)}")
            rows.append([cell(field.strip()) for cell, field in zip(cells, raw)])
            if len(rows) == READ_BLOCK:
                yield rows
                rows = []
    except csv.Error as err:  # raised by the record after the last one read
        raise DataFormatError(str(err), line=line + 1) from None
    except DataFormatError as err:  # a row's error, named at its line here
        raise DataFormatError(str(err), line=line) from None
    if rows:
        yield rows


def _number(field: str) -> float:
    """A dataset value: NaN for a missing marker, else a finite float."""
    if field in MISSING_MARKERS:
        return math.nan
    try:
        value = float(field)
    except ValueError:
        raise DataFormatError(f"bad numeric field {field!r}") from None
    if math.isfinite(value):
        return value
    raise DataFormatError(f"non-finite value {field!r}")


def _weight(field: str) -> float:
    """A record weight: a finite float greater than 0."""
    try:
        weight = float(field)
    except ValueError:
        raise DataFormatError(f"bad weight {field!r}") from None
    if 0 < weight < math.inf:
        return weight
    raise DataFormatError(f"weights must be positive, got {field!r}")


def _mask_cell(field: str) -> bool:
    if field in ("0", "1"):
        return field == "1"
    raise DataFormatError("mask cells must be 0 or 1")


def _write_csv(path: str | Path, header: list[str], rows: Iterable[list[str]]) -> None:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def read_dataset(path: str | Path) -> DataMatrix:
    """Load a dataset file; the mask reflects the missing markers.

    The rows after the header are read in blocks of :data:`READ_BLOCK`
    lines, and each block is converted by one ``np.loadtxt`` call where
    it can be (:func:`_c_block`): a block of plain numbers and ``NA``
    markers.  numpy's C parser converts a field with
    ``PyOS_string_to_double``, the routine behind Python's ``float``, so
    the bits are the ones ``float`` gives.  A block it refuses, such as
    one with an empty-field marker, a field only ``float`` reads or an
    error, goes through the plain pass instead (:func:`_csv_rows`): ``csv``
    fields converted one at a time, up to the first error.  A quoted field
    may span lines, so from the first ``"`` on the rest of the file goes
    through the plain pass."""
    with _open_text(path) as handle:
        header = _csv_header(csv.reader(handle), "empty file, expected a header row")
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise DataFormatError(f"duplicate header name(s) {dupes}", line=1)
        try:
            w_col = header.index(WEIGHT_COLUMN)
        except ValueError:
            w_col = None
        cells = [_weight if i == w_col else _number for i in range(len(header))]
        parts: list[np.ndarray] = []
        line = 2
        while lines := list(islice(handle, READ_BLOCK)):
            text = "".join(lines)
            quoted = '"' in text
            table = None if quoted else _c_block(text, lines, len(header))
            if table is not None and (w_col is None or (table[:, w_col] > 0).all()):
                parts.append(table)
            else:  # from a quote on, the plain pass reads the rest of the file
                reader = csv.reader(chain(lines, handle) if quoted else lines)
                parts.extend(np.array(rows, dtype=float) for rows in _csv_rows(reader, cells, line))
            line += len(lines)
    if not parts:
        raise DataFormatError("no records")
    table = np.concatenate(parts)
    values = table if w_col is None else np.delete(table, w_col, axis=1)
    return DataMatrix(
        values=values,
        mask=np.isnan(values),
        columns=tuple(h for i, h in enumerate(header) if i != w_col),
        weights=table[:, w_col].copy() if w_col is not None else None,
    )


def _c_block(text: str, lines: list[str], width: int) -> np.ndarray | None:
    """The floats of a block of raw lines without a quote, markers as NaN,
    parsed by numpy's C reader; ``None`` where that parse may differ from
    ``csv`` fields read with ``float``, which then read the block.

    The parser strips the whitespace ``str.strip`` strips and skips empty
    lines, as ``csv`` skips blank rows.  It refuses what ``float`` alone
    reads (``1_000``, non-ASCII digits), empty fields, lone ``\\r`` line
    ends and rows whose field count changes, whitespace-only ones
    included; ``comments=None`` keeps it from dropping text after ``#``.
    Each ``NA`` becomes `` nan``: the space makes ``-NA`` or ``1NA`` fail
    to parse, so every NaN of an ``NA`` is a marker field, and a NaN or
    infinity of any other field shows as one non-finite value too many.
    A block of blank lines alone, and one with a line past ``csv``'s field
    size limit, which ``csv`` refuses, are left to ``csv``."""
    if text.isspace() or max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        table = np.loadtxt(
            _io.StringIO(text.replace("NA", " nan")),
            delimiter=",", comments=None, quotechar=None, dtype=float, ndmin=2,
        )
    except ValueError:
        return None
    if table.shape[1] != width or table.size - np.count_nonzero(np.isfinite(table)) != text.count("NA"):
        return None
    return table


def write_dataset(data: DataMatrix, path: str | Path, missing_from_mask: bool = False) -> None:
    """Write values (NaN as ``NA``); optionally re-blank the masked cells.

    The ``__weight`` column is included only when some weight differs
    from 1.  Every cell is written as ``repr`` writes its float
    (:func:`_format_rows`), so a write/read round trip keeps every bit:
    a whole number below 1e16 as its integer digits plus ``.0``, written
    by array arithmetic, and every other cell by one ``%r`` format per
    block of :data:`WRITE_BLOCK` rows.
    """
    with_weights = bool(np.any(data.weights != 1.0))
    values = np.where(data.mask, math.nan, data.values) if missing_from_mask else data.values
    if with_weights:
        values = np.column_stack([values, data.weights])
    buf = _io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(list(data.columns) + ([WEIGHT_COLUMN] if with_weights else []))
    with Path(path).open("wb") as handle:
        handle.write(buf.getvalue().encode("utf-8"))
        for start in range(0, len(values), WRITE_BLOCK):
            handle.write(_format_rows(values[start : start + WRITE_BLOCK]))


def _format_rows(block: np.ndarray) -> bytes:
    """The CSV lines of a block of rows: each cell as ``repr`` of its
    float, NaN as ``NA``.

    A cell is whole where ``v == trunc(v)``, ``|v| < 1e16`` and ``v`` is
    not ``-0.0``; for exactly these floats ``repr`` is the integer's
    digits plus ``.0`` (from 1e16 on it switches to exponent form).
    Each cell gets a right-aligned slot of bytes: the whole cells their
    sign, digits and ``.0``, the others ``%r``, each its ``,`` or line
    end.  The slots without their zero padding are the template of one
    ``%`` format over the other cells.  A float's repr needs no CSV
    quoting, and only NaN's contains ``nan``."""
    width = block.shape[1]
    cells = block.ravel()
    whole = (np.abs(cells) < 1e16) & (cells == np.trunc(cells)) & ((cells != 0) | ~np.signbit(cells))
    if whole.any():
        q = np.abs(np.where(whole, cells, 0)).astype(np.int64)
        digits = len(str(q.max()))
        slots = np.zeros((cells.size, digits + 4), np.uint8)  # sign, digits, ".0" or "%r", separator
        slots[:, -3] = np.where(whole, ord("."), ord("%"))
        slots[:, -2] = np.where(whole, ord("0"), ord("r"))
        slots[:, -1] = ord(",")
        slots[width - 1 :: width, -1] = ord("\n")
        # From the units leftwards: a digit while the number lasts, then
        # the sign of a negative one.
        lead, sign = whole, whole & (cells < 0)
        for col in range(digits, -1, -1):
            q10 = q // 10
            slots[:, col] = np.where(lead, (q - q10 * 10).astype(np.uint8) + ord("0"), np.where(sign, ord("-"), 0))
            sign &= lead
            lead, q = q10 > 0, q10
        template = slots[slots != 0].tobytes().decode("ascii")
    else:  # no whole cell: the plain row template, with no slot work
        template = (",".join(["%r"] * width) + "\n") * len(block)
    return (template % tuple(cells[~whole].tolist())).replace("nan", "NA").encode("ascii")


def read_mask(path: str | Path, columns: Iterable[str] | None = None) -> np.ndarray:
    """Load a 0/1 mask file; optionally verify its header.  Its rows take
    the plain pass (:func:`_csv_rows`), as a dataset block that numpy's C
    parse refuses does."""
    with _open_text(path) as handle:
        reader = csv.reader(handle)
        header = _csv_header(reader, "empty mask file")
        if columns is not None and header != list(columns):
            raise DataFormatError(
                f"mask columns {header} do not match dataset columns {list(columns)}", line=1
            )
        parts = [np.array(rows, dtype=bool) for rows in _csv_rows(reader, [_mask_cell] * len(header))]
    if not parts:
        raise DataFormatError("no records in mask file")
    return np.concatenate(parts)


def write_mask(mask: np.ndarray, columns: Iterable[str], path: str | Path) -> None:
    rows = (["1" if cell else "0" for cell in row] for row in np.asarray(mask, dtype=bool))
    _write_csv(path, list(columns), rows)


def _key_value_lines(
    path: str | Path, separator: str, expected: str, missing: str, duplicate: str
) -> Iterator[tuple[int, str, str]]:
    """Line number, key and stripped value of each ``key <separator>
    value`` line; text after ``#`` is a comment.  ``expected`` is the
    message for a line without ``separator`` and ``missing`` the one for
    an empty key; ``duplicate`` precedes a repeated key in its message."""
    seen: set[str] = set()
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if separator not in line:
            raise DataFormatError(expected, line=lineno)
        name, _, value = line.partition(separator)
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
    lines = _key_value_lines(path, "=", "expected 'column = value'", "missing column name", "duplicate total for")
    for lineno, name, value in lines:
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
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_predictors(path: str | Path) -> dict[str, list[str]]:
    """Chain predictors, one ``target: a, b`` line per target; comments
    start with ``#``.  An empty list after the colon gives the target an
    intercept-only model.  The names are checked against the data where
    they are used (``pipeline.check_inputs``)."""
    lines = _key_value_lines(
        path, ":", "expected 'target: predictor, ...'", "missing target name", "duplicate predictors for"
    )
    predictors: dict[str, list[str]] = {}
    for lineno, target, rest in lines:
        names = [name.strip() for name in rest.split(",")] if rest else []
        if not all(names):
            raise DataFormatError(f"empty predictor name for {target!r}", line=lineno)
        predictors[target] = names
    return predictors


def read_config(path: str | Path) -> dict[str, str]:
    """Plain ``key = value`` configuration lines; comments start with ``#``."""
    lines = _key_value_lines(path, "=", "expected 'key = value'", "missing key", "duplicate key")
    return {name: value for _, name, value in lines}
