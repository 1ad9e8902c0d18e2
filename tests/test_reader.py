"""The block readers ``io.read_dataset`` and ``io.read_mask`` against the
cell-by-cell reference readers of ``_oracles``: the same columns and the
same bytes of values, mask and weights, or the same error message and
line, whatever the quoting, padding, line endings, blank rows and block
size."""

import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from calimp import io as cio
from calimp.errors import DataFormatError
from calimp.pipeline import DataMatrix

from _oracles import cell_read_dataset, cell_read_mask

# Fields numpy's C parse reads as ``float`` does, unicode whitespace
# padding among them; fields only ``float`` reads, or that must be quoted;
# markers (whitespace-only and empty fields are markers too); and fields
# that are errors, among them NaN, infinities and NA inside a token.
NUMBERS = ["0", "-0", "1.5", "-2.25e3", "1e-400", "5e-324", ".5", "7.", "0.1", "+4", "1\x0b", "\u30001\x85"]
CSV_NUMBERS = ["1_000", "1_0", "١٢", "2\n", "\r\n3"]
MARKERS = ["", "NA", " NA ", "\tNA", "  ", "\t"]
BAD_NUMBERS = [
    "foo", "nan", "NAN", "NaN", "-NA", "+NA", "1NA", "NAx", "N A", "-inf", "inf", "1e400", "Infinity",
    "1__0", "0x10", "1,5", "1 2", "\x00",
]
WEIGHTS = ["1", "2.5", " 0.75 ", "1e3"]
BAD_WEIGHTS = ["0", "-0", "-1", "1e-400", "x", "", "NA", "inf", "nan"]
BLOCK_SIZES = [1, 2, 3, cio.READ_BLOCK]


def outcome(read, *args):
    try:
        return read(*args)
    except DataFormatError as err:
        return str(err), err.line


def assert_same_dataset(got, want):
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    assert got.columns == want.columns
    for a, b in ((got.values, want.values), (got.mask, want.mask)):
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
    assert got.weights.tobytes() == want.weights.tobytes()


def assert_same_mask(got, want):
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())


def field(draw, text, may_quote):
    """``text`` as a CSV field, quoted where it must be, or where drawn if
    ``may_quote``."""
    if any(ch in text for ch in ',"\r\n') or (may_quote and draw(st.booleans())):
        return '"' + text.replace('"', '""') + '"'
    return text


def padded(draw, text):
    return draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", " ", "  ", "\t"]))


@st.composite
def csv_texts(draw, header, cell, width_errors):
    """A CSV file: ``header``, then rows whose cells ``cell(draw, i)``
    draws, blank and whitespace-only rows, rows of a wrong width where
    ``width_errors``, one line ending (``\\r`` alone too), and maybe a
    byte-order mark.  Fields may be quoted from a drawn row on (0 is the
    header), so the first quote can come in any block."""
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    count = draw(st.integers(1, 12))
    quoted_from = draw(st.integers(0, count + 1))
    lines = [",".join(field(draw, padded(draw, name), quoted_from == 0) for name in header)]
    for row in range(1, count + 1):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "wide"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", '"  "'])))
            continue
        width = len(header)
        if kind == "wide" and width_errors:
            width = draw(st.integers(1, len(header) + 2).filter(lambda k: k != len(header)))
        lines.append(",".join(field(draw, cell(draw, i % len(header)), row >= quoted_from) for i in range(width)))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return draw(st.sampled_from(["", "\ufeff"])) + text


def names(draw, k):
    """``k`` column names; now and then one is empty, which padding may
    make whitespace only."""
    header = [f"c{j}" for j in range(k)]
    if draw(st.integers(0, 9)) == 0:
        header[draw(st.integers(0, k - 1))] = ""
    return header


@st.composite
def dataset_texts(draw, errors):
    k = draw(st.integers(1, 4))
    header = names(draw, k)
    w_col = draw(st.none() | st.integers(0, k))
    if w_col is not None:
        header.insert(w_col, cio.WEIGHT_COLUMN)
    numbers = NUMBERS * 8 + CSV_NUMBERS + MARKERS + (BAD_NUMBERS if errors else [])
    weights = WEIGHTS * 4 + (BAD_WEIGHTS if errors else [])

    def cell(draw, i):
        value = draw(st.sampled_from(weights if i == w_col else numbers))
        return padded(draw, value) if value.strip() else value

    return draw(csv_texts(header, cell, errors))


@st.composite
def mask_texts(draw, errors):
    header = names(draw, draw(st.integers(1, 4)))
    cells = ["0", "1"] * 4 + (["2", "x", "", "1.0"] if errors else [])
    return header, draw(csv_texts(header, lambda draw, i: padded(draw, draw(st.sampled_from(cells))), errors))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.booleans().flatmap(dataset_texts), block=st.sampled_from(BLOCK_SIZES))
def test_dataset_matches_the_cell_reader(tmp_path, monkeypatch, text, block):
    path = write(tmp_path, "d.csv", text)
    monkeypatch.setattr(cio, "READ_BLOCK", block)
    assert_same_dataset(outcome(cio.read_dataset, path), outcome(cell_read_dataset, path))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.booleans().flatmap(mask_texts), block=st.sampled_from(BLOCK_SIZES), named=st.booleans())
def test_mask_matches_the_cell_reader(tmp_path, monkeypatch, case, block, named):
    header, text = case
    path = write(tmp_path, "m.csv", text)
    monkeypatch.setattr(cio, "READ_BLOCK", block)
    columns = header if named else None
    assert_same_mask(outcome(cio.read_mask, path, columns), outcome(cell_read_mask, path, columns))


@pytest.mark.parametrize("block", [1, 2, 512])
@pytest.mark.parametrize(
    "text, message, line",
    [
        ("a,b\n1,2\n3,foo\n", "bad numeric field 'foo'", 3),
        ("a\n1\n nan \n", "non-finite value 'nan'", 3),
        ("a,b\n-inf,1\n", "non-finite value '-inf'", 2),
        ("a,b\n1e400,1\n", "non-finite value '1e400'", 2),
        ("a,b\n1,2\n\n1\n", "expected 2 fields, found 1", 4),
        ("a,__weight\n1,x\n", "bad weight 'x'", 2),
        ("a,__weight\n1,NA\n", "bad weight 'NA'", 2),
        ("a,__weight\n1,1\n2,-1\n", "weights must be positive, got '-1'", 3),
        ("a,__weight\n1,1\n2,inf\n", "weights must be positive, got 'inf'", 3),
        # Two errors in one block: the first in file order is named.
        ("a,b\n1,2\n3,4\n5,6\n7,x\n9,10\n11\n", "bad numeric field 'x'", 5),
        ("a,b\n1,2\n3,4\n5,6\n7\n9,10\n11,x\n", "expected 2 fields, found 1", 5),
        # Within a row, cells in column order, weights among them.
        ("__weight,a\n0,foo\n", "weights must be positive, got '0'", 2),
        ("a,__weight\nfoo,0\n", "bad numeric field 'foo'", 2),
        # Lines count CSV records: a quoted newline is one, a blank row one.
        ('a\n"1\n"\n\nfoo\n', "bad numeric field 'foo'", 4),
        # NA within a token, a NaN or an infinity is not a marker.
        ("a,b\n1,NA\n2,-NA\n", "bad numeric field '-NA'", 3),
        ("a,b\n1,NA\n2,1NA\n", "bad numeric field '1NA'", 3),
        ("a,b\n1,NA\nNAN,2\n", "non-finite value 'NAN'", 3),
        ("a,b\n1,NA\n2, inf\n", "non-finite value 'inf'", 3),
        ("a,__weight\n1,1\n2,-0\n", "weights must be positive, got '-0'", 3),
        # From a quote on, csv reads the rest, its lines counted on.
        ('a\n1\n2\n"3\n"\n\nfoo\n', "bad numeric field 'foo'", 6),
        ("a,b\n", "no records", None),
        ("", "empty file, expected a header row", 1),
        ("a,a\n1,2\n", "duplicate header name(s) ['a']", 1),
        # Every header field names its column, before names are compared.
        ("a,b,,c\n1,2,3,4\n", "header field 3 has no name", 1),
        ("x1,x2,\n1,2,\n3,4,\n", "header field 3 has no name", 1),
        (' , "" ,a\n1,2,3\n', "header field 1 has no name", 1),
        ("\na,b\n1,2\n", "header field 1 has no name", 1),
    ],
)
def test_dataset_errors_name_the_first_bad_field(tmp_path, monkeypatch, block, text, message, line):
    path = write(tmp_path, "d.csv", text)
    monkeypatch.setattr(cio, "READ_BLOCK", block)
    with pytest.raises(DataFormatError) as info:
        cio.read_dataset(path)
    assert (str(info.value), info.value.line) == (f"line {line}: " * (line is not None) + message, line)
    assert outcome(cell_read_dataset, path) == (str(info.value), line)


@pytest.mark.parametrize("block", [1, 2, 512])
@pytest.mark.parametrize(
    "text, message, line",
    [
        ("a,b\n0,1\n1,2\n", "mask cells must be 0 or 1", 3),
        ("a,b\n0,1\n1,0,1\n0,x\n", "expected 2 fields, found 3", 3),
        ("a,b\n0,1\n1, \n0,1,1\n", "mask cells must be 0 or 1", 3),
        ("a,b\n\n", "no records in mask file", None),
        ("a,b,\n0,1,\n", "header field 3 has no name", 1),
    ],
)
def test_mask_errors_name_the_first_bad_row(tmp_path, monkeypatch, block, text, message, line):
    path = write(tmp_path, "m.csv", text)
    monkeypatch.setattr(cio, "READ_BLOCK", block)
    with pytest.raises(DataFormatError) as info:
        cio.read_mask(path)
    assert (str(info.value), info.value.line) == (f"line {line}: " * (line is not None) + message, line)
    assert outcome(cell_read_mask, path) == (str(info.value), line)


@pytest.mark.parametrize("quoted", [True, False])
@pytest.mark.parametrize("bad_first", [True, False])
def test_csv_error_comes_after_the_rows_before_it(tmp_path, bad_first, quoted):
    # A field past csv's size limit stops the reader only where a
    # row-by-row read meets it: a bad field before it, in the same block,
    # is named first, and otherwise it is an error at its own line.  An
    # unquoted one, which numpy's parser would read as 0, is refused too.
    field = '"' + "9" * 200 if quoted else "0." + "0" * 200
    text = "a\n1\n" + ("foo\n" if bad_first else "2\n") + field + "\n"
    path = write(tmp_path, "d.csv", text)
    limit = csv.field_size_limit(100)
    try:
        for read in (cio.read_dataset, cell_read_dataset):
            if bad_first:
                with pytest.raises(DataFormatError, match="bad numeric field 'foo'") as info:
                    read(path)
                assert info.value.line == 3
            else:
                with pytest.raises(DataFormatError, match=r"^line 4: field larger than field limit \(100\)$"):
                    read(path)
    finally:
        csv.field_size_limit(limit)


def test_each_block_takes_the_parse_it_qualifies_for(tmp_path, monkeypatch):
    # Blocks of two lines.  Numbers, NA and a blank line take numpy's C
    # parse; a field only float reads (1_0) sends its block to the plain
    # pass; from the first quote on, the plain pass reads the rest of the
    # file, in lists of at most two rows.
    path = write(tmp_path, "d.csv", 'a,b\n1,NA\n2,3\n1_0,2\n4,5\n6,7\n\n8,"9"\n10,11\n12,13\n')
    monkeypatch.setattr(cio, "READ_BLOCK", 2)
    parsed, refused, csv_rows = [], [], []
    c_block, plain_rows = cio._c_block, cio._csv_rows

    def spy_c_block(text, lines, width):
        table = c_block(text, lines, width)
        (refused if table is None else parsed).append(text)
        return table

    def spy_csv_rows(reader, cells, line):
        for rows in plain_rows(reader, cells, line):
            csv_rows.append(len(rows))
            yield rows

    monkeypatch.setattr(cio, "_c_block", spy_c_block)
    monkeypatch.setattr(cio, "_csv_rows", spy_csv_rows)
    got = cio.read_dataset(path)
    assert parsed == ["1,NA\n2,3\n", "6,7\n\n"]
    assert refused == ["1_0,2\n4,5\n"]
    assert csv_rows == [2, 2, 1]
    assert_same_dataset(got, cell_read_dataset(path))


def test_written_files_of_many_blocks_read_back_as_the_cell_reader_reads_them(tmp_path):
    rng = np.random.default_rng(40)
    values = rng.normal(size=(3 * cio.READ_BLOCK + 7, 8)) * rng.lognormal(size=(1, 8)) * 1e3
    mask = rng.random(values.shape) < 0.1
    data = DataMatrix(np.where(mask, np.nan, values), mask, tuple("abcdefgh"), weights=rng.uniform(0.5, 3, len(values)))
    path = tmp_path / "d.csv"
    cio.write_dataset(data, path)
    got = cio.read_dataset(path)
    assert_same_dataset(got, cell_read_dataset(path))
    assert got.values.tobytes() == data.values.tobytes() and got.weights.tobytes() == data.weights.tobytes()
    assert got.values.flags.c_contiguous
