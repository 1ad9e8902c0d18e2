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
from typing import IO, Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import CalimpError, DataFormatError
from .pipeline import DataMatrix

MISSING_MARKERS = ("", "NA")
WEIGHT_COLUMN = "__weight"
#: Rows :func:`write_dataset` formats at once: the arrays and floats of
#: one block exist together, so memory does not grow with the file, and
#: a block's arrays stay small enough for the processor's caches.
WRITE_BLOCK = 512
#: Lines (CSV records, where csv reads them) :func:`read_dataset` and
#: :func:`read_mask` convert at once.
READ_BLOCK = 512
#: Text inputs are read as UTF-8, past a leading byte-order mark, which
#: spreadsheet exports often write; outputs are written as UTF-8.
ENCODING = "utf-8-sig"

#: A block of rows: its first row's line number, its rows as read, the
#: number of its non-blank rows and their stripped fields (see
#: :func:`_csv_blocks`).
_Block = tuple[int, list[list[str]], int, list[str] | None]


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
    error (message ``empty``), and so is a CSV error in it, at line 1."""
    try:
        return [h.strip() for h in next(reader)]
    except StopIteration:
        raise DataFormatError(empty, line=1) from None
    except csv.Error as err:
        raise DataFormatError(str(err), line=1) from None


def _csv_blocks(reader: Iterator[list[str]], width: int, line: int = 2) -> Iterator[_Block]:
    """The rows of ``reader`` in blocks of :data:`READ_BLOCK`.  A block is
    its first row's line number, its rows as read, the number of its
    non-blank rows and their stripped fields in file order; the fields are
    ``None`` where a non-blank row's field count differs from ``width``.

    Line numbers count CSV records from ``line``, blank rows included.  A
    CSV error, such as a field past csv's size limit, is a
    :class:`DataFormatError` at the line of the record it broke; it ends
    the iteration only after the block of the rows read before it, as a
    row-by-row read would meet those rows first."""
    while True:
        block: list[list[str]] = []
        failure = None
        try:
            block.extend(islice(reader, READ_BLOCK))
        except csv.Error as err:
            failure = err
        if not block and failure is None:
            return
        rows = [raw for raw in block if not _blank(raw)]
        cells = [cell.strip() for raw in rows for cell in raw] if set(map(len, rows)) <= {width} else None
        yield line, block, len(rows), cells
        line += len(block)
        if failure is not None:
            raise DataFormatError(str(failure), line=line) from None


def _first_error(
    block: list[list[str]], line: int, width: int, check: Callable[[int, str], str | None]
) -> DataFormatError:
    """The error a row-by-row read meets first in a block that failed a
    block check: rows in file order, a row's field count before its
    cells, cells in column order.  ``check(i, cell)`` is the message for
    the stripped field ``cell`` of column ``i``, or ``None`` if it is
    valid.  This only names an error the block check has found."""
    for lineno, raw in enumerate(block, start=line):
        if _blank(raw):
            continue
        if len(raw) != width:
            return DataFormatError(f"expected {width} fields, found {len(raw)}", line=lineno)
        for i, cell in enumerate(raw):
            message = check(i, cell.strip())
            if message is not None:
                return DataFormatError(message, line=lineno)
    raise CalimpError("internal error: a block failed its check but none of its rows does")


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
    it can be (:func:`_c_block`).  numpy's C parser converts a field with
    ``PyOS_string_to_double``, the routine behind Python's ``float``, so
    the bits are the ones ``float`` gives.  A block it refuses goes
    through ``csv`` fields and :func:`_float_block` instead, which read
    everything ``float`` reads, and a block that fails there is scanned
    row by row for the error to report.  A quoted field may span lines,
    so from the first ``"`` on the rest of the file goes through ``csv``."""
    with _open_text(path) as handle:
        header = _csv_header(csv.reader(handle), "empty file, expected a header row")
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise DataFormatError(f"duplicate header name(s) {dupes}", line=1)
        try:
            w_col = header.index(WEIGHT_COLUMN)
        except ValueError:
            w_col = None
        width = len(header)

        def cell_error(i: int, cell: str) -> str | None:
            if i == w_col:
                try:
                    w = float(cell)
                except ValueError:
                    return f"bad weight {cell!r}"
                return None if math.isfinite(w) and w > 0 else f"weights must be positive, got {cell!r}"
            if cell in MISSING_MARKERS:
                return None
            try:
                value = float(cell)
            except ValueError:
                return f"bad numeric field {cell!r}"
            return None if math.isfinite(value) else f"non-finite value {cell!r}"

        def valid(table: np.ndarray | None) -> bool:
            return table is not None and (w_col is None or bool((table[:, w_col] > 0).all()))

        parts: list[np.ndarray] = []

        def read_csv(blocks: Iterator[_Block]) -> None:
            for line, block, n, cells in blocks:
                table = None if cells is None else _float_block(cells, n, width)
                if not valid(table):
                    raise _first_error(block, line, width, cell_error)
                if n:
                    parts.append(table)

        line = 2
        while lines := list(islice(handle, READ_BLOCK)):
            text = "".join(lines)
            if '"' in text:
                read_csv(_csv_blocks(csv.reader(chain(lines, handle)), width, line))
                break
            table = _c_block(text, lines, width)
            if valid(table):
                parts.append(table)
            else:
                read_csv(_csv_blocks(csv.reader(lines), width, line))
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


def _float_block(cells: list[str], n: int, width: int) -> np.ndarray | None:
    """The ``n`` by ``width`` floats of a block's stripped fields, markers
    as NaN; ``None`` if a field is not a float, or if the non-finite
    values are not exactly the markers."""
    markers = sum(map(cells.count, MISSING_MARKERS))
    if markers:
        cells = ["nan" if cell in MISSING_MARKERS else cell for cell in cells]
    try:
        table = np.array(cells, dtype=float)
    except ValueError:
        return None
    table = table.reshape(n, width)
    return table if table.size - np.count_nonzero(np.isfinite(table)) == markers else None


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


def _mask_cell_error(i: int, cell: str) -> str | None:
    return None if cell in ("0", "1") else "mask cells must be 0 or 1"


def read_mask(path: str | Path, columns: Iterable[str] | None = None) -> np.ndarray:
    """Load a 0/1 mask file; optionally verify its header."""
    with _open_text(path) as handle:
        reader = csv.reader(handle)
        header = _csv_header(reader, "empty mask file")
        if columns is not None and header != list(columns):
            raise DataFormatError(
                f"mask columns {header} do not match dataset columns {list(columns)}", line=1
            )
        parts: list[np.ndarray] = []
        for line, block, n, cells in _csv_blocks(reader, len(header)):
            if cells is None or cells.count("0") + cells.count("1") != len(cells):
                raise _first_error(block, line, len(header), _mask_cell_error)
            if n:
                parts.append(np.array(cells, dtype=str).reshape(n, len(header)) == "1")
    if not parts:
        raise DataFormatError("no records in mask file")
    return np.concatenate(parts)


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
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
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
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_predictors(path: str | Path) -> dict[str, list[str]]:
    """Chain predictors, one ``target: a, b`` line per target; comments
    start with ``#``.  An empty list after the colon gives the target an
    intercept-only model.  The names are checked against the data where
    they are used (``pipeline.check_inputs``)."""
    predictors: dict[str, list[str]] = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
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
