"""One BLAS thread for simulation work, and the one helper thread that takes the freed core.

OpenBLAS splits a large product over its own threads, and the bits of
the result depend on how many it used.  :func:`one_blas_thread` pins the
loaded OpenBLAS to one thread through ``ctypes`` while a population is
built or a chunk of trials runs, and puts the old count back afterwards.
The library is the one mapped into this process whose file name holds
"openblas" and which exports a get/set pair of thread-count functions,
tried in the order of :data:`_THREAD_FUNCTIONS` (the prefixed and
suffixed names that numpy's and scipy's wheels use, then the plain
ones), much as threadpoolctl looks them up.  With no such library,
nothing is pinned, no helper starts, and results may depend on the BLAS
thread count.

While pinned, the core that OpenBLAS would have used goes to one helper
thread of the pinning block.  Work reaches it only through :func:`share`:
a list of fixed tasks that this thread and the helper take from one queue
in turn.  Each task computes the same bits whichever thread runs it, so
the results do not depend on whether the helper ran; the tasks call numpy
and no public function of this package.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from functools import cache
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

import numpy as np

#: (getter, setter) names of the thread count in an OpenBLAS build.
_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

T = TypeVar("T")

_owned = threading.local()  # .helper: the executor of this thread's innermost block


def cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class OpenBLAS(NamedTuple):
    """A loaded OpenBLAS and its thread-count functions."""

    path: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


@cache
def openblas() -> OpenBLAS | None:
    """The OpenBLAS loaded in this process, looked up once; None if there is none."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "/" in line and "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:  # not Linux
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _THREAD_FUNCTIONS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return OpenBLAS(path, get, set_)
    return None


@contextmanager
def one_blas_thread(helper: bool) -> Iterator[Executor | None]:
    """Pin OpenBLAS to one thread for the ``with`` block, then restore its count.

    With ``helper`` true and the pin in effect, a one-thread executor,
    which the block yields, serves :func:`share` on this thread; else the
    block yields None and hides any outer helper.  On exit, also on an
    error, the executor is shut down and the outer helper and count
    restored, so a process forked outside a block inherits no helper.
    """
    lib = openblas()
    if lib is None:
        yield None
        return
    old, outer = lib.get_threads(), getattr(_owned, "helper", None)
    lib.set_threads(1)
    try:
        with ThreadPoolExecutor(max_workers=1) if helper else nullcontext() as pool:
            _owned.helper = pool
            yield pool
    finally:
        _owned.helper = outer
        lib.set_threads(old)


def share(tasks: Iterable[Callable[[], T]]) -> list[T]:
    """The results of ``tasks``, in task order; this thread and its helper each
    take the next task from one queue until none is left.

    This thread claims the first task before the helper wakes, so a
    large first task allocates from, and frees back to, the memory that
    this thread's later work reuses, not a heap of the helper's own.
    Without a helper, as on the helper thread itself or on a thread that
    opened no helper block, the tasks run here, in order.  Tasks on the
    helper run under this thread's numpy error state.  If tasks fail, the
    error of the first of them in task order is raised once every task
    that started has finished; no task starts once one has failed.
    """
    helper = getattr(_owned, "helper", None)
    if helper is None:
        return [task() for task in tasks]
    queue, lock = enumerate(tasks), threading.Lock()
    results: dict[int, T] = {}
    errors: dict[int, BaseException] = {}

    def claim() -> tuple[int, Callable[[], T]] | None:
        with lock:
            return None if errors else next(queue, None)

    def take(item) -> None:
        while item is not None:
            i, task = item
            try:
                results[i] = task()
            except BaseException as exc:  # raised below, once both threads are done
                with lock:
                    errors[i] = exc
            item = claim()

    state = np.geterr()

    def take_on_helper() -> None:
        with np.errstate(**state):
            take(claim())

    first = claim()
    pending = helper.submit(take_on_helper)
    try:
        take(first)
    finally:
        pending.result()
    if errors:
        raise errors[min(errors)]
    return [results[i] for i in range(len(results))]
