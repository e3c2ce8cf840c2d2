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
thread of the pinning block.  Work reaches it only through :func:`both`,
in fixed splits that compute the same bits whether or not it ran; the
helper calls numpy and nothing else of this package.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from functools import cache
from typing import Callable, Iterator, NamedTuple

#: (getter, setter) names of the thread count in an OpenBLAS build.
_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

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
    which the block yields, serves :func:`both` on this thread; else the
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


def both(side: Callable, here: Callable) -> tuple:
    """``(side(), here())``, with ``side`` on this thread's helper while ``here`` runs here.

    Without a helper, as on the helper thread itself, both run here,
    ``side`` first.  Both have finished when this returns or raises.
    """
    helper = getattr(_owned, "helper", None)
    if helper is None:
        return side(), here()
    pending = helper.submit(side)
    try:
        mine = here()
    finally:
        theirs = pending.result()
    return theirs, mine
