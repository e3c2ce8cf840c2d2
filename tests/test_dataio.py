"""CSV reading: the numpy fast stage against the checked row-by-row parser."""

import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eddr import dataio
from eddr.dataio import read_matrix_csv
from eddr.exceptions import DataFormatError


def write_csv(path, text):
    # newline="" keeps CRLF and lone CR exactly as given; a lone surrogate
    # "\udcXX" is written as the byte 0xXX, which is not UTF-8.  An existing
    # file is unlinked first: ext4 flushes a file truncated and rewritten in
    # place when it is closed, about 20 times slower than writing a new one
    if os.path.exists(path):
        os.unlink(path)
    with open(path, "w", encoding="utf-8", errors="surrogateescape", newline="") as fh:
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


def force_ranges(monkeypatch, cores=5):
    """Cut every non-empty body into up to ``cores`` byte ranges, whatever its size."""
    monkeypatch.setattr(dataio, "_SEGMENT_MIN_BYTES", 1)
    monkeypatch.setattr(dataio, "_cores", lambda: cores)


def assert_matches_checked(csv_path, text, skip_header):
    write_csv(csv_path, text)
    assert outcome(read_matrix_csv, csv_path, skip_header) == outcome(
        dataio._read_checked, csv_path, skip_header)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(text=csv_documents(), skip_header=st.sampled_from([None, True, False]))
def test_reader_matches_checked_parser(csv_path, text, skip_header):
    assert_matches_checked(csv_path, text, skip_header)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(text=csv_documents(), skip_header=st.sampled_from([None, True, False]))
def test_segmented_reader_matches_checked_parser(csv_path, text, skip_header):
    with pytest.MonkeyPatch.context() as mp:
        force_ranges(mp)
        assert_matches_checked(csv_path, text, skip_header)


# -- the fast stage is taken --------------------------------------------------

def clean_file(tmp_path, monkeypatch):
    """A clean file, with the checked parser broken so only the fast stage can read it."""
    x = np.random.default_rng(5).standard_normal((50, 300)) * 10.0 ** np.arange(-150, 150)
    path = write_csv(tmp_path / "clean.csv",
                     "\n".join(",".join(map(repr, row)) for row in x.tolist()) + "\n")

    def broken(*args, **kwargs):
        raise AssertionError("checked parser called")

    monkeypatch.setattr(dataio, "_parse_row", broken)
    return path, x


def test_clean_file_bypasses_checked_parser(tmp_path, monkeypatch):
    # with the checked parser broken, a clean file still reads correctly,
    # so the fast stage returned it (no timing involved)
    path, x = clean_file(tmp_path, monkeypatch)
    got = read_matrix_csv(path)
    assert got.shape == x.shape
    assert got.tobytes() == x.tobytes()


def test_clean_file_bypasses_checked_parser_in_ranges(tmp_path, monkeypatch):
    path, x = clean_file(tmp_path, monkeypatch)
    force_ranges(monkeypatch)
    assert len(dataio._body_ranges(path, None)) == 5
    got = read_matrix_csv(path)
    assert got.shape == x.shape
    assert got.tobytes() == x.tobytes()


# -- byte ranges and child processes ------------------------------------------

def numbered_rows(rows, cols=3):
    return "".join(",".join(str(r * cols + c) for c in range(cols)) + "\n" for r in range(rows))


def test_bad_cell_in_last_range_reports_as_before(tmp_path, monkeypatch):
    text = "c1,c2,c3\n" + numbered_rows(39) + "1,2,oops\n"
    path = write_csv(tmp_path / "bad.csv", text)
    force_ranges(monkeypatch, cores=3)
    ranges = dataio._body_ranges(path, None)
    assert len(ranges) == 3 and ranges[-1][0] < len(text) - len("1,2,oops\n")
    with pytest.raises(DataFormatError) as exc:
        read_matrix_csv(path)
    assert str(exc.value) == f"{path}: row 41, column 3: not a number: 'oops'"
    assert outcome(read_matrix_csv, path, None) == outcome(dataio._read_checked, path, None)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# 2,000 rows: past the first read of the header stage, which decodes ahead
@pytest.mark.parametrize("text, error", [
    (numbered_rows(2000), None),
    (numbered_rows(1999) + "1,2,oops\n", "row 2000, column 3: not a number: 'oops'"),
    ("oops,1,2\n" + numbered_rows(1999), "row 1, column 1: not a number: 'oops'"),
    (numbered_rows(1999) + "1,\udce9,3\n", "row 2000, column 2 is not UTF-8 text"),
], ids=["read", "child fails", "caller fails", "child meets a non-UTF-8 byte"])
def test_every_child_is_reaped(tmp_path, monkeypatch, text, error):
    path = write_csv(tmp_path / "m.csv", text)
    force_ranges(monkeypatch, cores=4)
    forks = []
    fork_parse = dataio._fork_parse
    monkeypatch.setattr(dataio, "_fork_parse", lambda *a: forks.append(a) or fork_parse(*a))
    if error is None:
        assert read_matrix_csv(path).shape == (2000, 3)
    else:
        with pytest.raises(DataFormatError, match=error):
            read_matrix_csv(path)
    assert len(forks) == 3
    assert_no_child_left()


def test_killed_child_falls_back(tmp_path, monkeypatch):
    path = write_csv(tmp_path / "m.csv", numbered_rows(40))
    force_ranges(monkeypatch, cores=3)
    parent, parse_range = os.getpid(), dataio._parse_range

    def parse_or_die(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return parse_range(*args)

    monkeypatch.setattr(dataio, "_parse_range", parse_or_die)
    got = read_matrix_csv(path)
    assert got.tobytes() == dataio._read_checked(path, None).tobytes()
    assert_no_child_left()


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
    ("1,2\n3,4\udce9\n", "row 2, column 2 is not UTF-8 text"),
    ("\udcff,x\n1,2\n", "row 1, column 1 is not UTF-8 text"),
])
def test_diagnostics(tmp_path, text, message):
    with pytest.raises(DataFormatError, match=message):
        read_matrix_csv(write_csv(tmp_path / "d.csv", text))
