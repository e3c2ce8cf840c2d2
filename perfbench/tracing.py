"""In-memory spans recorded around calls into eddr, from outside the package.

A :class:`Tracer` replaces module or class attributes of eddr with
wrappers that record one span per call: name, start, end, parent and an
optional tag.  Nothing under ``src/`` is modified; :meth:`Tracer.restore`
puts every original attribute back.

Run as a script, this file is the launcher for one traced CLI command:

    python perfbench/tracing.py SPANS_JSON estimate g1.csv g2.csv

It imports ``eddr.cli``, installs the CLI wrappers, runs ``eddr.cli.main``
with the remaining arguments and writes the spans to ``SPANS_JSON``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    tag: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of single-threaded code."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._originals: list = []

    def wrap(self, owner, attr: str, name: str, tag_arg: int | None = None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span named ``name``.

        ``tag_arg`` selects a positional argument whose ``str`` is stored
        as the span's tag (for example the path a reader was given).
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tag = str(args[tag_arg]) if tag_arg is not None and len(args) > tag_arg else ""
                spans[index] = Span(name, start, end, parent, tag)

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def finished(self) -> list[Span]:
        if self._stack or any(s is None for s in self.spans):
            raise RuntimeError("spans are still open")
        return list(self.spans)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def check_closure(spans: list[Span], root: str, rel_tol: float = 1e-9) -> tuple[bool, str]:
    """Check that the layer spans inside every ``root`` span account for it.

    Children must lie inside their parent's interval and must not overlap
    each other, and the self times of a root span's subtree must add up to
    the root's duration.
    """
    own = self_times(spans)
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    roots = [i for i, s in enumerate(spans) if s.name == root]
    if not roots:
        return False, f"no {root} spans"
    worst = 0.0
    for r in roots:
        todo, total = [r], 0.0
        while todo:
            i = todo.pop()
            kids = sorted(children.get(i, []), key=lambda k: spans[k].start)
            prev_end = spans[i].start
            for k in kids:
                if spans[k].start < prev_end or spans[k].end > spans[i].end:
                    return False, f"{spans[k].name} escapes or overlaps inside {spans[i].name}"
                prev_end = spans[k].end
            if own[i] < 0.0:
                return False, f"span {spans[i].name} has negative self time"
            total += own[i]
            todo.extend(kids)
        dur = spans[r].duration
        worst = max(worst, abs(total - dur) / dur if dur > 0 else 0.0)
    ok = worst <= rel_tol
    return ok, f"{len(roots)} {root} spans, worst relative gap {worst:.2e}"


def write_spans(path: str, spans: list[Span]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([s._asdict() for s in spans], fh)


def read_spans(path: str) -> list[Span]:
    with open(path, "r", encoding="utf-8") as fh:
        return [Span(**s) for s in json.load(fh)]


def install_cli_wrappers(tracer: Tracer) -> None:
    """Spans for every eddr layer a CLI command passes through."""
    import eddr.calibration
    import eddr.cli

    cli = eddr.cli
    tracer.wrap(cli, "read_matrix_csv", "dataio.read_matrix_csv", tag_arg=0)
    tracer.wrap(cli, "pooled_summary", "core.pooled_summary")
    tracer.wrap(cli, "estimate_all", "estimators.estimate_all")
    tracer.wrap(cli, "calibrate", "calibration.calibrate")
    tracer.wrap(eddr.calibration, "asymptotic_law", "error_model.asymptotic_law")
    tracer.wrap(cli, "discriminant_score", "core.discriminant_score")
    tracer.wrap(cli, "classify", "core.classify")


def _main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import eddr.cli

    tracer = Tracer()
    install_cli_wrappers(tracer)
    try:
        code = eddr.cli.main(cli_args)
    finally:
        tracer.restore()
    write_spans(spans_path, tracer.finished())
    return code


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
