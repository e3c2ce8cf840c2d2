"""Checks on what the package loads and on the benchmark's hooks.

``perfbench/run.py --trace 1`` replaces eddr functions by name (see
``perfbench/sims.py`` and ``perfbench/tracing.py``); a rename in eddr
would break it, so one test installs both sets of wrappers and restores them.
``perfbench/cli_workload.py`` imports the estimator kernels by name, so the
fixture imports it too.  Two guards bound the memory the simulation's set-up
and trials allocate, as traced by ``tracemalloc``.
"""

import contextlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import eddr.calibration
import eddr.cli
import eddr.simulate
import eddr.threads
from eddr.calibration import CutoffRequest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import cli_workload
    import sims
    import tracing

    return sims, tracing, cli_workload


def _attributes():
    owners = (eddr.simulate, eddr.simulate.PopulationDesign, eddr.cli, eddr.calibration)
    return {(owner, name): value for owner in owners for name, value in vars(owner).items()}


def test_trace_wrappers_install_and_restore(perfbench_modules, monkeypatch):
    # the tracer is single-threaded: the helper thread of a chunk with a
    # group over BLOCK_ROWS rows must call none of the wrapped names
    sims, tracing, _ = perfbench_modules
    monkeypatch.setattr(eddr.simulate, "cores", lambda: 2)
    helpers = []
    one_blas_thread = eddr.threads.one_blas_thread

    @contextlib.contextmanager
    def spy(helper):
        with one_blas_thread(helper) as executor:
            helpers.append(executor)
            yield executor

    monkeypatch.setattr(eddr.simulate, "one_blas_thread", spy)
    before = _attributes()
    tracer = tracing.Tracer()
    try:
        sims._install_trial_wrappers(tracer)
        tracing.install_cli_wrappers(tracer)
        assert _attributes() != before
        for request in (CutoffRequest.m1(0.2), CutoffRequest.m2_logit(0.2, 0.1)):
            cfg = eddr.simulate.SimConfig(p=8, n1=8, n2=8, rho=0.0, reps=1, seed=3,
                                          request=request)
            pop = eddr.simulate.make_population(cfg)
            eddr.simulate.run_trial(cfg, pop, np.random.default_rng(1))
        # p = 420 > N = 398: three and two row blocks and the split dual Gram matrix
        cfg = eddr.simulate.SimConfig(p=420, n1=266, n2=132, rho=0.5, reps=2, seed=3,
                                      request=CutoffRequest.m2_logit(0.2, 0.1))
        eddr.simulate.run_simulation(cfg)
    finally:
        tracer.restore()
    assert _attributes() == before
    assert helpers[-1] is not None or eddr.threads.openblas() is None
    names = {span.name for span in tracer.finished()}
    assert {"simulate.run_trial", "simulate.sample_group", "core.pooled_summary",
            "calibration.calibrate", "error_model.asymptotic_law",
            "simulate.error_inputs", "simulate.conditional_error"} <= names
    ok, detail = tracing.check_closure(tracer.finished(), "simulate.run_trial")
    assert ok, detail


def test_traced_chunk_with_the_helper_closes(perfbench_modules, monkeypatch):
    # the tracer keeps one span stack for all threads: a task that the helper
    # takes must call none of the names perfbench wraps, or the spans of a
    # chunk at N = 288 would not nest
    sims, tracing, _ = perfbench_modules
    monkeypatch.setattr(eddr.simulate, "cores", lambda: 2)
    helpers = []
    one_blas_thread = eddr.threads.one_blas_thread

    @contextlib.contextmanager
    def spy(helper):
        with one_blas_thread(helper) as executor:
            helpers.append(executor is not None)
            yield executor

    monkeypatch.setattr(eddr.simulate, "one_blas_thread", spy)
    cfg = eddr.simulate.SimConfig(p=320, n1=144, n2=144, rho=0.5, reps=3, seed=4,
                                  request=CutoffRequest.m1(0.3))
    pop = eddr.simulate.make_population(cfg)
    helpers.clear()
    tracer = tracing.Tracer()
    try:
        sims._install_trial_wrappers(tracer)
        records = eddr.simulate._run_chunk(cfg, pop, 0, cfg.reps)
    finally:
        tracer.restore()
    assert None not in records
    assert helpers == [eddr.threads.openblas() is not None]
    spans = tracer.finished()
    assert sum(span.name == "simulate.sample_group" for span in spans) == 2 * cfg.reps
    ok, detail = tracing.check_closure(spans, "simulate.run_trial")
    assert ok, detail


def test_import_loads_no_scipy():
    # a fresh interpreter: this one may hold scipy for the reference tests.
    # Nor importlib.metadata: the version is eddr.__version__, not a lookup
    src = os.path.dirname(os.path.dirname(os.path.abspath(eddr.cli.__file__)))
    code = ("import sys, eddr, eddr.cli; print(sorted(m for m in sys.modules "
            "if m.startswith('scipy') or m == 'importlib.metadata'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _peak_traced_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _criterion_2_config(reps):
    return eddr.simulate.SimConfig(p=1024, n1=256, n2=256, rho=0.5, reps=reps, seed=5,
                                   request=CutoffRequest.m1(0.3))


def test_population_forms_no_pxp_matrix():
    # a p x p float matrix at p = 1024 alone takes 8.4 MB; the two half-size
    # blocks and S+'s eigenvectors take about 6.3 MB
    peak = _peak_traced_bytes(eddr.simulate.make_population, _criterion_2_config(1))
    assert peak < 12e6


def test_trial_chunk_keeps_one_work_matrix():
    # the 512 x 1024 work matrix takes 4.2 MB and the dual Gram matrix 2.1 MB;
    # per-trial group arrays plus their stacked copy would add another 8.4 MB
    cfg = _criterion_2_config(10)
    pop = eddr.simulate.make_population(cfg)
    peak = _peak_traced_bytes(eddr.simulate._run_chunk, cfg, pop, 0, cfg.reps)
    assert peak < 8e6
