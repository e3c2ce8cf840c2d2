"""CSV reading: the numpy fast stage against the checked row-by-row parser."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eddr import dataio
from eddr.dataio import read_matrix_csv
from eddr.exceptions import DataFormatError


def write_csv(path, text):
    # newline="" keeps CRLF and lone CR exactly as given
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return str(path)


def outcome(read, path, skip_header):
    """Shape and bytes of the array read, or the diagnostic raised."""
    try:
        a = read(path, skip_header)
    except DataFormatError as exc:
        return "error", str(exc)
    return a.shape, a.dtype.str, a.tobytes()


# -- differential test -------------------------------------------------------

_FLOATS = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
_NUMBER_TEXT = st.one_of(
    _FLOATS.map(repr),
    _FLOATS.map(lambda x: f"{x:.17e}"),
    _FLOATS.map(lambda x: f"{x:.3E}"),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from([
        "-0.0", "0.0", "+0", "5e-324", "-4.9e-324", "2.2250738585072014e-308",
        "1.7976931348623157e308", "1e309", "1E5", "1e+05", "1e-05", ".5", "5.", "+1",
        "007", "1_5", "1__5", "_1", "\u0661\u0662", "\uff11", "nan", "-NaN", "inf",
        "-Infinity", "0x10", "1e", "--1", "1.2.3", "\u2212" + "1",
    ]),
)
_JUNK_TEXT = st.sampled_from(["", "#", "#1", '"1"', "'1'", "abc", "c1", "\x00", "1 2"])
_PAD = st.sampled_from(["", " ", "  ", "\t", "\xa0", "\u2003", "\x0c", "\x0b", "\x1c", "\x85"])
# numbers three times as often as junk, so some messy documents still parse
_CELL = st.tuples(
    _PAD, st.one_of(_NUMBER_TEXT, _NUMBER_TEXT, _NUMBER_TEXT, _JUNK_TEXT), _PAD
).map("".join)
_CLEAN_CELL = st.tuples(_PAD, _FLOATS.map(repr), _PAD).map("".join)
_BLANK = st.sampled_from(["", " ", "\t", "  \t "])
_NEWLINE = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])


@st.composite
def csv_documents(draw):
    width = draw(st.integers(1, 4))
    cell = _CELL if draw(st.booleans()) else _CLEAN_CELL
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["a,b,c", "x,1", "c1, c2", ",,", "nan,x"])))
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(_BLANK))
            continue
        ragged = draw(st.integers(0, 9)) == 0
        cells = draw(st.lists(cell, min_size=width - ragged, max_size=width + ragged))
        lines.append(",".join(cells))
    text = "".join(line + draw(_NEWLINE) for line in lines)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last row
    if draw(st.integers(0, 4)) == 0:
        text = "\ufeff" + text
    return text


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("dataio") / "doc.csv")


@settings(max_examples=400, derandomize=True, deadline=None)
@given(text=csv_documents(), skip_header=st.sampled_from([None, True, False]))
def test_reader_matches_checked_parser(csv_path, text, skip_header):
    write_csv(csv_path, text)
    assert outcome(read_matrix_csv, csv_path, skip_header) == outcome(
        dataio._read_checked, csv_path, skip_header)


# -- the fast stage is taken --------------------------------------------------

def test_clean_file_bypasses_checked_parser(tmp_path, monkeypatch):
    # with the checked parser broken, a clean file still reads correctly,
    # so the fast stage returned it (no timing involved)
    x = np.random.default_rng(5).standard_normal((50, 300)) * 10.0 ** np.arange(-150, 150)
    path = write_csv(tmp_path / "clean.csv",
                     "\n".join(",".join(map(repr, row)) for row in x.tolist()) + "\n")

    def broken(*args, **kwargs):
        raise AssertionError("checked parser called")

    monkeypatch.setattr(dataio, "_parse_row", broken)
    got = read_matrix_csv(path)
    assert got.shape == x.shape
    assert got.tobytes() == x.tobytes()


# -- plain cases ---------------------------------------------------------------

@pytest.mark.parametrize("text, expected", [
    ("2.5\n", [[2.5]]),
    ("1.0,-0.0,3e-5\n", [[1.0, -0.0, 3e-5]]),
    ("1\n2\n3\n", [[1.0], [2.0], [3.0]]),
    ("c1,c2\n1,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("\n  \n1,2\n\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("\ufeff1.0,2.0\n3.0,4.0\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("\ufeffx,y\n3.0,4.0\n", [[3.0, 4.0]]),
    ("1_5,\u0661\n", [[15.0, 1.0]]),
])
def test_shapes_and_values(tmp_path, text, expected):
    got = read_matrix_csv(write_csv(tmp_path / "m.csv", text))
    want = np.array(expected)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("text", ["", "\n\n", " \n", "c1,c2\n", "c1,c2\n \n"])
def test_no_rows_reads_empty(tmp_path, text):
    assert read_matrix_csv(write_csv(tmp_path / "e.csv", text)).shape == (0, 0)


def test_skip_header_drops_numeric_first_line(tmp_path):
    path = write_csv(tmp_path / "h.csv", "\n1,2\n3,4\n")
    assert read_matrix_csv(path, skip_header=True).tolist() == [[3.0, 4.0]]
    assert read_matrix_csv(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_skip_header_false_reads_header_as_data(tmp_path):
    path = write_csv(tmp_path / "h.csv", "c1,c2\n1,2\n")
    with pytest.raises(DataFormatError, match="row 1, column 1: not a number: 'c1'"):
        read_matrix_csv(path, skip_header=False)


# -- header rule -----------------------------------------------------------------

@pytest.mark.parametrize("text, message", [
    ("1.0,,3.0\n4.0,5.0,6.0\n7.0,8.0,9.0\n", "row 1, column 2 is empty"),
    ("1.0,2.O,3.0\n4.0,5.0,6.0\n", "row 1, column 2: not a number: '2.O'"),
    ("\n1.0,x\n4.0,5.0\n", "row 2, column 2: not a number: 'x'"),
    ("nan,x\n4.0,5.0\n", "row 1, column 2: not a number: 'x'"),
])
def test_first_line_with_a_number_is_data(tmp_path, text, message):
    with pytest.raises(DataFormatError, match=message):
        read_matrix_csv(write_csv(tmp_path / "d.csv", text))


@pytest.mark.parametrize("text, message", [
    ("1,2\n3,oops\n", "row 2, column 2: not a number: 'oops'"),
    ("1,2\n3\n", "row 2 has 1 columns, expected 2"),
    ("1,2\n3,inf\n", "row 2, column 2 is not finite"),
    ("c1,c2\n\n1,2\ninf,3\n", "row 4, column 1 is not finite"),
    ("1,2\n3,4,\n", "row 2, column 3 is empty"),
])
def test_diagnostics(tmp_path, text, message):
    with pytest.raises(DataFormatError, match=message):
        read_matrix_csv(write_csv(tmp_path / "d.csv", text))
