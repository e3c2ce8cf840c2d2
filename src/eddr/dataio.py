"""CSV ingestion and run manifests.

Input files are plain comma-separated numeric matrices, one observation
per row, '.' as the decimal mark, UTF-8 with or without a byte-order
mark.  The first non-blank line is a header when none of its non-empty
cells parses as a number, or always with ``skip_header=True``; a first
line with any numeric cell is data, so a bad cell in it is reported like
a bad cell anywhere else.

Reading has two stages.  The lines after the header go to numpy's C
parser (``np.loadtxt``).  A body of 1 MiB or more is cut at line ends
into byte ranges, up to one per core this process may run on; the
calling process parses the first and a forked child each of the others,
returning its rows over a pipe (there is no option to set).  If any
range fails to parse, warns, finds no rows or returns a non-finite
value, or a child fails, the file is read again by the checked
row-by-row parser, which accepts everything Python's ``float`` accepts,
skips whitespace-only lines, and is the only source of the row/column
diagnostics.  Every cell the C parser accepts, ``float`` accepts with
the same bits, so the result does not depend on which stage produced it
or on how many ranges the body was cut into.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import platform
import tempfile
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .exceptions import DataFormatError

try:
    from importlib.metadata import version as _pkg_version

    _EDDR_VERSION = _pkg_version("eddr")
except Exception:  # pragma: no cover - not installed
    _EDDR_VERSION = "unknown"


def _parse_row(line: str, row_index: int, path: str) -> list[float]:
    cells = line.split(",")
    values = []
    for col, cell in enumerate(cells):
        text = cell.strip()
        if not text:
            raise DataFormatError(f"{path}: row {row_index + 1}, column {col + 1} is empty")
        try:
            values.append(float(text))
        except ValueError:
            raise DataFormatError(
                f"{path}: row {row_index + 1}, column {col + 1}: not a number: {text!r}"
            ) from None
    return values


def _is_header(line: str) -> bool:
    """True when no cell of ``line`` parses as a number (empty cells never do)."""
    for cell in line.split(","):
        try:
            float(cell)
        except ValueError:
            continue
        return False
    return True


def _read_checked(path: str, skip_header: bool | None) -> np.ndarray:
    """Row-by-row reader that reports the row and column of a bad cell."""
    # bytes that are not UTF-8 decode to lone surrogates, so they can be placed
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        lines = [ln.rstrip("\n").rstrip("\r") for ln in fh]
    for i, ln in enumerate(lines):
        try:
            ln.encode("utf-8")
        except UnicodeEncodeError as exc:
            col = ln.count(",", 0, exc.start) + 1
            raise DataFormatError(f"{path}: row {i + 1}, column {col} is not UTF-8 text") from None
    rows_text = [(i, ln) for i, ln in enumerate(lines) if ln.strip()]
    if rows_text and (skip_header or (skip_header is None and _is_header(rows_text[0][1]))):
        rows_text = rows_text[1:]
    if not rows_text:
        return np.zeros((0, 0))
    data = []
    width = None
    for i, ln in rows_text:
        row = _parse_row(ln, i, path)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DataFormatError(
                f"{path}: row {i + 1} has {len(row)} columns, expected {width}"
            )
        data.append(row)
    matrix = np.array(data, dtype=float)
    if not np.isfinite(matrix).all():
        row, col = np.argwhere(~np.isfinite(matrix))[0]
        line = rows_text[row][0]  # rows are numbered by file line, as above
        raise DataFormatError(f"{path}: row {line + 1}, column {col + 1} is not finite")
    return matrix


#: A body is cut into at most one byte range per this many bytes.
_SEGMENT_MIN_BYTES = 1 << 20
_BOM = b"\xef\xbb\xbf"


def _cores() -> int:
    """Cores this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _body_ranges(path: str, skip_header: bool | None) -> list[tuple[int, int]]:
    """Byte ranges of the lines after the header; each but the last ends after a line feed."""
    with open(path, "rb") as fh:
        start = len(_BOM) if fh.read(len(_BOM)) == _BOM else 0
        fh.seek(start)
        # newline="" leaves each line end as written, so encoded lengths add up to bytes
        text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
        line = text.readline()
        while line and not line.strip():
            start += len(line.encode("utf-8"))
            line = text.readline()
        if skip_header or (skip_header is None and _is_header(line)):
            start += len(line.encode("utf-8"))
        text.detach()
        stop = fh.seek(0, os.SEEK_END)
        count = max(1, min(_cores(), (stop - start) // _SEGMENT_MIN_BYTES))
        bounds = [start]
        for i in range(1, count):
            fh.seek(max(bounds[-1], start + (stop - start) * i // count))
            while True:  # on to just after the next '\n', a bounded read at a time
                chunk = fh.readline(1 << 16)
                if not chunk or chunk.endswith(b"\n"):
                    break
            bounds.append(fh.tell())
        bounds.append(stop)
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


class _ByteRange(io.RawIOBase):
    """The next ``size`` bytes of an unbuffered binary file."""

    def __init__(self, raw, size: int):
        self._raw, self._left = raw, size

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        n = self._raw.readinto(memoryview(buf)[: self._left])
        self._left -= n
        return n


def _parse_range(path: str, start: int, stop: int) -> np.ndarray:
    """numpy's parse of bytes [start, stop) of ``path``, read as universal-newline UTF-8."""
    with open(path, "rb", buffering=0) as raw:
        raw.seek(start)
        lines = io.TextIOWrapper(io.BufferedReader(_ByteRange(raw, stop - start)), encoding="utf-8")
        with lines, warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2)


def _fork_parse(path: str, start: int, stop: int) -> tuple[int, int]:
    """Fork a child that parses one range and writes its shape, then its rows, to a pipe.

    Returns the child's pid and the pipe's read end.  The child leaves
    only through ``os._exit``: 0 once everything is written, 1 otherwise.
    It runs only numpy's C parser and a pipe write, never BLAS, so the
    parent's BLAS threads, which a fork does not copy, are never missed.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            rows = _parse_range(path, start, stop)
            with open(w, "wb") as out:
                out.write(np.array(rows.shape, dtype=np.int64).tobytes())
                out.write(rows.data)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, r


def _read_into(fd: int, a: np.ndarray) -> None:
    """Fill ``a`` from the pipe ``fd``; ValueError if the pipe ends first."""
    view = memoryview(a).cast("B")
    while view:
        n = os.readv(fd, [view])
        if not n:
            raise ValueError("a range's child process ended early")
        view = view[n:]


def _read_ranges(path: str, skip_header: bool | None) -> np.ndarray | None:
    """The fast stage: every byte range of the body parsed by numpy, all but the first in a child.

    None when there is no body.  Raises ValueError when a child fails or
    the ranges disagree on width; every child is reaped before it returns.
    """
    ranges = _body_ranges(path, skip_header)
    if not ranges:
        return None
    children = []
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on forking a process with threads (BLAS has some);
            # the child only parses and writes, and must never be lost to a raised warning
            warnings.simplefilter("ignore", DeprecationWarning)
            for start, stop in ranges[1:]:
                children.append(_fork_parse(path, start, stop))
        head = _parse_range(path, *ranges[0])
        shapes = []
        for _, fd in children:
            shapes.append(np.empty(2, dtype=np.int64))
            _read_into(fd, shapes[-1])
        if any(cols != head.shape[1] for _, cols in shapes):
            raise ValueError("byte ranges differ in width")
        matrix = np.empty((len(head) + sum(int(rows) for rows, _ in shapes), head.shape[1]))
        row = len(head)
        matrix[:row] = head
        del head  # freed before the children's rows make the rest of ``matrix`` resident
        for (_, fd), (rows, _) in zip(children, shapes):
            _read_into(fd, matrix[row:row + rows])
            row += rows
    finally:
        # close every read end before any wait: later children hold copies of
        # earlier read ends, so closing and waiting one child at a time can hang
        for _, fd in children:
            os.close(fd)
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    if any(statuses):
        raise ValueError("a range's child process failed")
    return matrix


def read_matrix_csv(path: str, skip_header: bool | None = None) -> np.ndarray:
    """Read a numeric matrix; returns shape (rows, cols), possibly (0, 0).

    ``skip_header=None`` treats the first non-blank line as a header when
    none of its non-empty cells is a number.  Raises
    :class:`DataFormatError` naming the row and column of a bad cell.
    """
    try:
        matrix = _read_ranges(path, skip_header)
    except (ValueError, Warning, OSError):  # a missing file fails again below, as itself
        matrix = None
    if matrix is None or matrix.size == 0 or not np.isfinite(matrix).all():
        return _read_checked(path, skip_header)
    return matrix


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass
class RunManifest:
    """Everything needed to reproduce a command's outputs exactly."""

    command: str
    config: dict
    seed: int | None
    outputs: list[str] = field(default_factory=list)
    started: str = ""
    finished: str = ""
    versions: dict = field(
        default_factory=lambda: {
            "eddr": _EDDR_VERSION,
            "numpy": np.__version__,
            "python": platform.python_version(),
        }
    )

    def mark_started(self) -> None:
        self.started = datetime.now(timezone.utc).isoformat()

    def mark_finished(self) -> None:
        self.finished = datetime.now(timezone.utc).isoformat()

    def write(self, path: str) -> None:
        write_text_atomic(path, json.dumps(dataclasses.asdict(self), indent=2) + "\n")


def format_table_value(x: float) -> str:
    """Six significant digits, the precision used in result tables."""
    return f"{x:.6g}"
