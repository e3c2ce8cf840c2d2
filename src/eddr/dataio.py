"""CSV ingestion and run manifests.

Input files are plain comma-separated numeric matrices, one observation
per row, '.' as the decimal mark, UTF-8 with or without a byte-order
mark.  The first non-blank line is a header when none of its non-empty
cells parses as a number, or always with ``skip_header=True``; a first
line with any numeric cell is data, so a bad cell in it is reported like
a bad cell anywhere else.

Reading has two stages.  The lines after the header go to numpy's C
parser (``np.loadtxt``).  If it raises, warns, finds no rows or returns
a non-finite value, the file is read again by the checked row-by-row
parser, which accepts everything Python's ``float`` accepts, skips
whitespace-only lines, and is the only source of the row/column
diagnostics.  Every cell the C parser accepts, ``float`` accepts with
the same bits, so the result does not depend on which stage produced it.
"""

from __future__ import annotations

import dataclasses
import itertools
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
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [ln.rstrip("\n").rstrip("\r") for ln in fh]
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


def read_matrix_csv(path: str, skip_header: bool | None = None) -> np.ndarray:
    """Read a numeric matrix; returns shape (rows, cols), possibly (0, 0).

    ``skip_header=None`` treats the first non-blank line as a header when
    none of its non-empty cells is a number.  Raises
    :class:`DataFormatError` naming the row and column of a bad cell.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        first = fh.readline()
        while first and not first.strip():
            first = fh.readline()
        header = skip_header or (skip_header is None and _is_header(first))
        rows = fh if header else itertools.chain([first], fh)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                matrix = np.loadtxt(rows, delimiter=",", comments=None, dtype=float, ndmin=2)
        except (ValueError, Warning):
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
