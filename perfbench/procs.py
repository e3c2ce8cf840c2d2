"""Child processes: environment, wall time, exit code and peak memory."""

from __future__ import annotations

import os
import subprocess
import time

#: Fresh-interpreter set-ups measured per run; the median is reported.
SETUP_REPS = 7


def child_env(src: str) -> dict:
    """The caller's environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_process(argv: list[str], env: dict, stdout_path: str) -> tuple[float, int, float]:
    """Wall seconds, exit code and peak RSS (MB) of one child process."""
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def setup_times(argv: list[str], env: dict, workdir: str) -> tuple[list[float], float]:
    """Wall times of SETUP_REPS runs of a set-up command, and their peak RSS (MB)."""
    times, rss = [], 0.0
    out = os.path.join(workdir, "setup.out")
    for _ in range(SETUP_REPS):
        wall, code, peak = run_process(argv, env, out)
        if code != 0:
            with open(out + ".err", "r", encoding="utf-8", errors="replace") as fh:
                raise RuntimeError(f"set-up {argv[1:]} exited {code}: {fh.read()[-2000:]}")
        times.append(wall)
        rss = max(rss, peak)
    return times, rss
