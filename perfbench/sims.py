"""Monte Carlo workloads: ``run_simulation`` on two frozen acceptance cells.

The timed loop interleaves two kinds of work on fresh seeds:

* a *job*: ``Cell.job`` trials at ``workers=1``.  Jobs are short (about
  0.15 s) and ``best_job_s`` is the fastest of them: on a shared machine
  whose speed shifts by up to 70 % for seconds at a time, interference
  only ever adds time, so the fastest job is the steadiest estimate of
  the program's own cost.
* a *pair*: ``Cell.pair`` trials run once at ``workers=1`` and once at
  ``workers=nproc``.  The two records must be bitwise identical (the
  determinism contract); their wall times give the parallel speed-up.

An untraced run makes one pair; a traced run gives pairs about a third
of its time budget.
"""

from __future__ import annotations

import os
import pickle
import resource
import statistics
import sys
import threading
import time
from typing import NamedTuple

import numpy as np

import eddr.calibration
import eddr.simulate
from eddr.calibration import CutoffRequest
from eddr.exceptions import SimulationError
from eddr.simulate import SimConfig, attained_confidence_level, attained_error_rate

from procs import child_env, setup_times
from tracing import Tracer, check_closure, self_times

#: Widening of the frozen tolerance, in Monte Carlo standard errors of the run.
SE_WIDENING = 3.0
#: Largest tolerated fraction of failed trials (the harness's own cap).
FAILED_CAP = eddr.simulate.MAX_EXCLUDED_FRACTION
#: Share of a traced run's time budget spent on workers=1 / workers=nproc
#: pairs.  An untraced run makes one pair, for the determinism check only,
#: so that its jobs get most of the budget.
PAIR_SHARE = 1 / 3
JOB, PAIR = 0, 1  # seed streams


class Cell(NamedTuple):
    design: dict  # SimConfig fields other than reps, seed and workers
    job: int  # trials per job
    pair: int  # trials per pair run; large enough that chunks hold several trials
    target: float  # frozen acceptance value
    tol: float  # its frozen tolerance
    eu: float | None  # None: attained error rate; else attained confidence at eu


CELLS = {
    # criterion 2: p > N, sampler on its CSR path, M1 Gram cut-off
    "sim-m1-p1024": Cell(
        design=dict(p=1024, n1=256, n2=256, rho=0.5, bandwidth=50, request=CutoffRequest.m1(0.3)),
        job=4, pair=64, target=0.300352, tol=0.004, eu=None,
    ),
    # criterion 4: p < N, full pooled_summary -> estimate_all -> calibrate path
    "sim-m2-p64": Cell(
        design=dict(p=64, n1=64, n2=64, rho=0.5, bandwidth=50,
                    request=CutoffRequest.m2_logit(0.10, 0.01)),
        job=250, pair=4000, target=0.998, tol=0.005, eu=0.10,
    ),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _fingerprint(res) -> tuple:
    rows = np.array([(r.cond_error, r.cutoff, float(r.fell_back)) for r in res.records])
    return rows.tobytes(), res.n_excluded


def _setup_argv(cfg: SimConfig) -> list[str]:
    """A fresh interpreter that imports eddr.simulate and builds the population."""
    code = ("import sys; from eddr.calibration import CutoffRequest; "
            "from eddr.simulate import SimConfig, make_population; "
            "make_population(SimConfig(p=int(sys.argv[1]), n1=2, n2=2, rho=float(sys.argv[2]), "
            "bandwidth=int(sys.argv[3]), reps=1, seed=0, request=CutoffRequest.m1(0.5)))")
    return [sys.executable, "-c", code, str(cfg.p), repr(cfg.rho), str(cfg.bandwidth)]


def _time_population(cfg: SimConfig, reps: int = 5):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        pop = eddr.simulate.make_population(cfg)
        times.append(time.perf_counter() - t0)
    return pop, times


class _Runs:
    """Runs and times batches; counts attempts, failures and determinism mismatches."""

    def __init__(self, cell: Cell, seed: int, pop):
        self.cell, self.seed, self.pop = cell, seed, pop
        self.attempted = self.failed = self.excluded = self.fell_back = 0
        self.records: list = []  # distinct trials, from the workers=1 runs
        self.mismatches = 0

    def config(self, stream: int, k: int, workers: int) -> SimConfig:
        seed = int(np.random.SeedSequence([self.seed, stream, k]).generate_state(1, np.uint64)[0])
        reps = self.cell.job if stream == JOB else self.cell.pair
        return SimConfig(reps=reps, seed=seed, workers=workers, **self.cell.design)

    def run(self, stream: int, k: int, workers: int = 1, keep: bool = False):
        """Wall seconds and result (None if the run raised) of one batch."""
        cfg = self.config(stream, k, workers)
        self.attempted += cfg.reps
        t0 = time.perf_counter()
        try:
            res = eddr.simulate.run_simulation(cfg, self.pop)
        except SimulationError:
            self.failed += cfg.reps
            return time.perf_counter() - t0, None
        elapsed = time.perf_counter() - t0
        self.failed += res.n_excluded
        if keep:
            self.records.extend(res.records)
            self.excluded += res.n_excluded
            self.fell_back += res.n_fell_back
        return elapsed, res

    def check(self, first, second) -> None:
        """Count a mismatch unless two runs of one batch gave identical records."""
        if first is None or second is None or _fingerprint(first) != _fingerprint(second):
            self.mismatches += 1

    def gate(self) -> tuple[bool, list[str]]:
        cell, notes = self.cell, []
        if not self.records:
            return False, ["no feasible trials"]
        if cell.eu is None:
            stat, label = attained_error_rate(self.records), "attained error"
        else:
            stat, label = attained_confidence_level(self.records, cell.eu), "attained confidence"
        allowed = cell.tol + SE_WIDENING * stat.se
        ok_stat = abs(stat.value - cell.target) <= allowed
        notes.append(f"{label} {stat.value:.6f} (se {stat.se:.6f}, {len(self.records)} trials) vs "
                     f"{cell.target} +- {allowed:.6f}: {'ok' if ok_stat else 'FAIL'}")
        ok_det = self.mismatches == 0
        notes.append("repeated runs of a batch (workers=1, workers=nproc, traced) identical: "
                     + ("ok" if ok_det else f"FAIL ({self.mismatches} batches differ)"))
        frac = self.failed / self.attempted
        ok_fail = frac <= FAILED_CAP
        notes.append(f"failed_frac {frac:.2e} <= {FAILED_CAP:g}: {'ok' if ok_fail else 'FAIL'}")
        return ok_stat and ok_det and ok_fail, notes


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _install_trial_wrappers(tracer: Tracer) -> None:
    sim = eddr.simulate
    tracer.wrap(sim, "run_trial", "simulate.run_trial")
    tracer.wrap(sim.PopulationDesign, "sample_group", "simulate.sample_group")
    tracer.wrap(sim, "error_inputs", "simulate.error_inputs")
    tracer.wrap(sim, "conditional_error", "simulate.conditional_error")
    tracer.wrap(sim, "pooled_summary", "core.pooled_summary")
    tracer.wrap(sim, "estimate_all", "estimators.estimate_all")
    tracer.wrap(sim, "calibrate", "calibration.calibrate")
    tracer.wrap(eddr.calibration, "asymptotic_law", "error_model.asymptotic_law")


class _IpcCounter:
    """Counts tasks and pickled argument bytes sent to the pool in eddr.simulate."""

    def __init__(self):
        self.tasks = 0
        self.bytes = 0
        self._lock = threading.Lock()
        self._base = eddr.simulate.ProcessPoolExecutor
        counter = self

        class CountingPool(self._base):
            def submit(self, fn, /, *args, **kwargs):
                size = len(pickle.dumps((fn, args, kwargs), pickle.HIGHEST_PROTOCOL))
                with counter._lock:
                    counter.tasks += 1
                    counter.bytes += size
                return super().submit(fn, *args, **kwargs)

        eddr.simulate.ProcessPoolExecutor = CountingPool

    def restore(self) -> None:
        eddr.simulate.ProcessPoolExecutor = self._base


def run(name: str, seed: int, seconds: float, trace: bool, src: str, workdir: str) -> dict:
    cell = CELLS[name]
    workers = nproc()
    setup_cfg = SimConfig(reps=cell.job, seed=seed, **cell.design)
    setup, _ = setup_times(_setup_argv(setup_cfg), child_env(src), workdir)
    pop, population_times = _time_population(setup_cfg)
    runs = _Runs(cell, seed, pop)
    eddr.simulate.run_simulation(setup_cfg, pop)  # warm caches, not timed

    jobs, twins, parallel, traced, spans = [], [], [], [], []
    first_pair = None  # workers=1 result of pair 0, compared with the counted pool run
    pair_time = 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        want_pair = not parallel or (trace and pair_time < PAIR_SHARE * elapsed)
        if want_pair:
            expected = pair_time / len(parallel) if parallel else 0.0
        else:
            expected = sum(jobs) * (2 if trace else 1) / len(jobs) if jobs else 0.0
        # start more work only if it is expected to end within the budget
        if jobs and elapsed + expected > seconds:
            break
        if want_pair:
            t0, k = time.perf_counter(), len(parallel)
            t1, r1 = runs.run(PAIR, k, keep=True)
            tp, rp = runs.run(PAIR, k, workers)
            runs.check(r1, rp)
            if k == 0:
                first_pair = r1
            twins.append(t1)
            parallel.append(tp)
            pair_time += time.perf_counter() - t0
            continue
        k = len(jobs)
        t1, r1 = runs.run(JOB, k, keep=True)
        jobs.append(t1)
        if trace:
            tracer = Tracer()
            _install_trial_wrappers(tracer)
            try:
                tt, rt = runs.run(JOB, k)
            finally:
                tracer.restore()
            traced.append(tt)
            runs.check(r1, rt)
            offset = len(spans)
            spans.extend(s._replace(parent=s.parent + offset if s.parent >= 0 else -1)
                         for s in tracer.finished())

    report = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "trials_per_s": (cell.pair / statistics.median(twins), "1/s", len(twins)),
        "trials_per_s_par": (cell.pair / statistics.median(parallel), "1/s", len(parallel)),
        "best_job_s": (min(jobs), "s", len(jobs)),
        "peak_rss_mb": (_peak_rss_mb(), "MB", 1),
    }
    out = {"workers": workers, "samples": {"setup_s": setup, "job_s": jobs, "pair_serial_s": twins,
                                           "pair_parallel_s": parallel, "traced_job_s": traced}}
    notes = []
    if not trace:
        out["metrics"] = {k: report[k][0] for k in ("setup_s", "best_job_s", "peak_rss_mb")}
    else:
        ipc = _IpcCounter()
        try:
            _, rp = runs.run(PAIR, 0, workers)
        finally:
            ipc.restore()
        runs.check(first_pair, rp)
        ok_closure, closure_note = check_closure(spans, "simulate.run_trial")
        out["spans"] = spans
        out["metrics"] = metrics = _layer_metrics(spans, population_times, twins, parallel, jobs,
                                                  traced, cell.pair, runs, ipc)
        covered = 1.0 - metrics["simulate.cutoff_self_ms"] / statistics.mean(
            1e3 * s.duration for s in spans if s.name == "simulate.run_trial")
        notes.append(f"closure: {closure_note}; named layers cover {covered:.1%} of run_trial, "
                     f"its self time the rest: {'ok' if ok_closure else 'FAIL'}")
    ok, gate_notes = runs.gate()
    report["failed_frac"] = (runs.failed / runs.attempted, "ratio", runs.attempted)
    out.update(correct=ok and (not trace or ok_closure), attempted=runs.attempted,
               failed=runs.failed, notes=gate_notes + notes, report=report)
    return out


def _layer_metrics(spans, population_times, twins, parallel, jobs, traced, pair, runs,
                   ipc) -> dict:
    own = self_times(spans)
    trial_ms = [1e3 * s.duration for s in spans if s.name == "simulate.run_trial"]
    trials = len(trial_ms)

    def per_trial_ms(*names) -> float:
        return 1e3 * sum(s.duration for s in spans if s.name in names) / trials

    serial, par = statistics.median(twins), statistics.median(parallel)
    return {
        "simulate.sample_ms": per_trial_ms("simulate.sample_group"),
        "simulate.cutoff_self_ms": 1e3 * sum(
            o for s, o in zip(spans, own) if s.name == "simulate.run_trial") / trials,
        "simulate.evaluate_ms": per_trial_ms("simulate.error_inputs",
                                             "simulate.conditional_error"),
        "simulate.trial_ms.p50": float(np.percentile(trial_ms, 50)),
        "simulate.trial_ms.p99": float(np.percentile(trial_ms, 99)),
        "simulate.population_s": statistics.median(population_times),
        "simulate.ipc_tasks": ipc.tasks,
        "simulate.ipc_mb": ipc.bytes / 1e6,
        "simulate.trials_per_s": pair / serial,
        "simulate.trials_per_s_par": pair / par,
        "simulate.parallel_speedup": serial / par,
        "simulate.excluded": runs.excluded,
        "simulate.fell_back": runs.fell_back,
        "core.pooled_summary_ms": per_trial_ms("core.pooled_summary"),
        "estimators.estimate_all_ms": per_trial_ms("estimators.estimate_all"),
        "calibration.calibrate_ms": per_trial_ms("calibration.calibrate"),
        "error_model.asymptotic_law_ms": per_trial_ms("error_model.asymptotic_law"),
        "trace.overhead_frac": statistics.median(t / j for t, j in zip(traced, jobs)) - 1.0,
    }
