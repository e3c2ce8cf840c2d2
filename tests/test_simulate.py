"""Simulation harness: design construction, trials, determinism, aggregates."""

import contextlib
import math
import os
import pickle
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

import eddr.simulate as sim
from eddr.calibration import CutoffRequest
from eddr.core import Dims, cholesky, pooled_summary
from eddr.error_model import LimitParams, limit_values
from eddr.estimators import estimate_all, estimate_low
from eddr.threads import one_blas_thread, openblas, share
from eddr.exceptions import (
    CalibrationInfeasibleError,
    DimensionError,
    NotPositiveDefiniteError,
    SimulationError,
)
from eddr.simulate import (
    BLOCK_ROWS,
    DESIGN_SEPARATION,
    SimConfig,
    TrialRecord,
    attained_confidence_level,
    attained_error_rate,
    band_sigma,
    conditional_error,
    error_inputs,
    make_population,
    run_simulation,
    run_trial,
)


def m1_config(**kw):
    base = dict(p=8, n1=8, n2=8, rho=0.0, reps=40, seed=7,
                request=CutoffRequest.m1(0.2))
    base.update(kw)
    return SimConfig(**base)


needs_openblas = pytest.mark.skipif(openblas() is None, reason="no OpenBLAS thread setter found")


def _meeting():
    """Two tasks that wait for each other, so two threads must take one each;
    each returns the thread it ran on."""
    meet = threading.Barrier(2, timeout=10)

    def task():
        meet.wait()
        return threading.get_ident()

    return [task, task]


class TestBandSigma:
    def test_zero_rho_is_identity(self):
        assert np.array_equal(band_sigma(5, 0.0), np.eye(5))

    def test_small_hand_example(self):
        expected = np.array([[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])
        assert np.allclose(band_sigma(3, 0.5), expected)

    def test_band_is_truncated(self):
        sig = band_sigma(6, 0.5, bandwidth=2)
        assert sig[0, 2] == 0.25
        assert sig[0, 3] == 0.0

    def test_unit_diagonal_at_scale(self):
        sig = band_sigma(128, 0.5)
        assert np.trace(sig) / 128 == 1.0  # a1 exactly 1

    def test_rho_domain(self):
        with pytest.raises(ValueError):
            band_sigma(4, 1.0)

    def test_truncation_can_break_definiteness(self):
        with pytest.raises(NotPositiveDefiniteError):
            band_sigma(150, 0.95, bandwidth=50)

    @pytest.mark.parametrize("p, rho, bandwidth", [
        (1, 0.5, 50), (6, 0.5, 2), (7, -0.6, 0), (64, 0.2, 50), (40, 0.3, 39), (40, 0.3, 200),
    ])
    def test_matches_scipy_toeplitz_bytes(self, p, rho, bandwidth):
        from scipy.linalg import toeplitz

        sig = band_sigma(p, rho, bandwidth)
        want = toeplitz(sig[0])
        assert sig.dtype == want.dtype and sig.shape == want.shape
        assert sig.tobytes() == want.tobytes()


class TestDesignMeans:
    def test_population_separation_diagnostic(self):
        # in sigma's eigenbasis the whitened mean difference is (mu1 - mu2)/sqrt(lam)
        pop = make_population(m1_config(p=16, rho=0.3))
        whitened = (pop.mu1 - pop.mu2) / pop.sd
        assert whitened @ whitened == pytest.approx(DESIGN_SEPARATION, rel=1e-9)

    def test_truncation_can_break_definiteness(self):
        with pytest.raises(NotPositiveDefiniteError):
            make_population(m1_config(p=150, rho=0.95, bandwidth=50))

    def test_population_holds_only_p_vectors(self):
        pop = make_population(m1_config(p=64, rho=0.5))
        arrays = [getattr(pop, f.name) for f in fields(pop)]
        assert arrays and all(isinstance(a, np.ndarray) for a in arrays)
        assert all(a.shape == (64,) for a in arrays)


def full_eigh_design(p, rho, bandwidth):
    """Eigenvalues and mu1 coordinates from the eigendecomposition of the p x p sigma."""
    lam, w = np.linalg.eigh(band_sigma(p, rho, bandwidth))
    return lam, np.sqrt(lam) * (w.T @ np.full(p, math.sqrt(DESIGN_SEPARATION / p)))


class TestTwoBlockPopulation:
    """make_population builds the banded design from its two centrosymmetric blocks."""

    @pytest.mark.parametrize("rho", [0.4, -0.4])
    @pytest.mark.parametrize("p", [1, 2, 3, 7, 33, 64, 1023, 1024])
    def test_matches_the_full_eigendecomposition(self, p, rho):
        for bandwidth in sorted({0, 1, p - 1, p + 5}):
            pop = make_population(m1_config(p=p, rho=rho, bandwidth=bandwidth))
            lam, mu1 = full_eigh_design(p, rho, bandwidth)
            assert np.allclose(pop.sd**2, lam, rtol=1e-12, atol=0.0), bandwidth
            # the full eigh's own eigenvectors err by up to 2e-11 here at
            # p = 1024 (see test_matches_closed_form_tridiagonal)
            assert np.abs(pop.mu1 - np.abs(mu1)).max() <= 5e-11, bandwidth
            assert (pop.mu1 >= 0.0).all()
            whitened = pop.mu1 / pop.sd
            assert whitened @ whitened == pytest.approx(DESIGN_SEPARATION, rel=1e-12)
            # mu1 vanishes exactly on the p // 2 antisymmetric eigenvectors
            zeros = 0 if bandwidth == 0 or p == 1 else p // 2
            assert np.count_nonzero(pop.mu1 == 0.0) == zeros, bandwidth

    @pytest.mark.parametrize("p", [1023, 1024])
    def test_matches_closed_form_tridiagonal(self, p):
        # bandwidth 1: eigenvalues 1 + 2 rho cos(k pi/(p+1)), eigenvectors
        # sqrt(2/(p+1)) sin(j k pi/(p+1)), so w_k'1 has a closed form
        rho = 0.4
        pop = make_population(m1_config(p=p, rho=rho, bandwidth=1))
        theta = np.arange(1, p + 1) * np.pi / (p + 1)
        lam = 1.0 + 2.0 * rho * np.cos(theta)
        j = np.arange(1, p + 1)
        w_sum = np.sqrt(2.0 / (p + 1)) * np.sin(np.outer(j, theta)).sum(axis=0)
        mu1 = np.sqrt(lam) * np.abs(w_sum) * math.sqrt(DESIGN_SEPARATION / p)
        order = np.argsort(lam)
        assert np.allclose(pop.sd**2, lam[order], rtol=1e-12, atol=0.0)
        assert np.abs(pop.mu1 - mu1[order]).max() <= 1e-11

    @pytest.mark.parametrize("p", [10, 64, 128, 1024])
    @pytest.mark.parametrize("rho, bandwidth", [(0.0, 50), (0.5, 0)])
    def test_diagonal_sigma_keeps_its_bytes(self, p, rho, bandwidth):
        # the bytes the identity design had when it came from eigh(I)
        lam, w = np.linalg.eigh(np.eye(p))
        mu1 = np.sqrt(lam) * (w.T @ np.full(p, math.sqrt(DESIGN_SEPARATION / p)))
        pop = make_population(m1_config(p=p, rho=rho, bandwidth=bandwidth))
        assert pop.mu1.tobytes() == mu1.tobytes()
        assert pop.sd.tobytes() == np.sqrt(lam).tobytes()
        assert pop.mu2.tobytes() == np.zeros(p).tobytes()


class TestTrialMechanics:
    def test_balanced_design_has_zero_bias_term(self, rng):
        pop = make_population(m1_config())
        x1 = pop.sample_group(pop.mu1, 8, rng)
        x2 = pop.sample_group(pop.mu2, 8, rng)
        err = error_inputs(pooled_summary(x1, x2), pop)
        assert err.bias == 0.0
        assert err.u_tilde == err.u

    def test_unbalanced_bias_term(self, rng):
        pop = make_population(m1_config())
        x1 = pop.sample_group(pop.mu1, 10, rng)
        x2 = pop.sample_group(pop.mu2, 6, rng)
        summary = pooled_summary(x1, x2)
        err = error_inputs(summary, pop)
        expected = (1 / 6 - 1 / 10) * 8 * estimate_low(summary)[0] / 2
        assert err.bias == pytest.approx(expected, rel=1e-12)
        assert err.bias == summary.score_bias / 2  # half the score's correction

    def test_conditional_error_matches_brute_force(self, rng):
        # the score of a fresh point is linear in the point, hence exactly
        # normal given the training data; check against classification of
        # many test points
        cfg = m1_config(p=6, n1=12, n2=12)
        pop = make_population(cfg)
        x1 = pop.sample_group(pop.mu1, 12, rng)
        x2 = pop.sample_group(pop.mu2, 12, rng)
        err = error_inputs(pooled_summary(x1, x2), pop)
        c = 0.4
        analytic = conditional_error(err, c)
        m = 400_000
        xs = pop.sample_group(pop.mu1, m, rng)
        xb1, xb2 = x1.mean(0), x2.mean(0)
        scores = ((xs - xb2) ** 2).sum(1) - ((xs - xb1) ** 2).sum(1)
        empirical = float(np.mean(scores <= 2 * c))
        se = np.sqrt(analytic * (1 - analytic) / m)
        assert abs(empirical - analytic) < 4 * se

    def test_m1_fast_path_matches_full_pipeline(self):
        # run_trial's M1 cut-off is the one built from all eight estimates
        from eddr.calibration import m1_cutoff

        for p in (10, 40):  # N = 21: primal and dual statistics
            cfg = m1_config(p=p, n1=9, n2=12)
            pop = make_population(cfg)
            fast = run_trial(cfg, pop, np.random.default_rng(31)).cutoff
            rng = np.random.default_rng(31)
            x1 = pop.sample_group(pop.mu1, 9, rng)
            x2 = pop.sample_group(pop.mu2, 12, rng)
            traces, deltas = estimate_all(pooled_summary(x1, x2))
            lp = LimitParams(*limit_values(deltas.d0, deltas.d1, traces.a2, Dims(9, 12, p)))
            assert fast == pytest.approx(m1_cutoff(lp, 0.2).c, rel=1e-12)

    @pytest.mark.parametrize("p", [10, 40])  # N = 23: primal and dual statistics
    def test_error_inputs_match_the_original_basis(self, p):
        # data drawn from N(mu_k, sigma) and rotated into sigma's eigenbasis
        # give the eigenbasis population the U, V and bias of the original;
        # the population's eigenvectors w are signed so that w'1 >= 0
        cfg = m1_config(p=p, n1=9, n2=14, rho=0.5)
        sigma = band_sigma(p, 0.5)
        lam, w = np.linalg.eigh(sigma)
        w *= np.where(w.sum(axis=0) < 0, -1.0, 1.0)
        # mu1 = sigma^(1/2) sqrt(5/p) 1, mu2 = 0
        mu1 = w @ (np.sqrt(lam) * (w.T @ np.full(p, math.sqrt(DESIGN_SEPARATION / p))))
        mu2 = np.zeros(p)
        rng, chol = np.random.default_rng(12), cholesky(sigma)
        x1 = rng.standard_normal((9, p)) @ chol.T + mu1
        x2 = rng.standard_normal((14, p)) @ chol.T + mu2
        err = error_inputs(pooled_summary(x1 @ w, x2 @ w), make_population(cfg))
        xb1, xb2 = x1.mean(0), x2.mean(0)
        d = xb1 - xb2
        tr_s = (((x1 - xb1) ** 2).sum() + ((x2 - xb2) ** 2).sum()) / (9 + 14 - 2)
        assert err.u == pytest.approx(d @ (xb1 - mu1) - d @ d / 2, rel=1e-9)
        assert err.v == pytest.approx(d @ sigma @ d, rel=1e-9)
        assert err.bias == pytest.approx((9 - 14) / (9 * 14) * tr_s / 2, rel=1e-9)

    # N = 24: primal and dual statistics; p = 400 > N = 290 with groups of
    # two and three substream blocks, drawn and summed partly by the helper
    @pytest.mark.parametrize("p", [10, 40, 400])
    def test_work_matrix_reuse_keeps_the_trials(self, p, monkeypatch):
        # a trial overwrites all of its work matrix, so a reused (dirty)
        # one gives the records of a fresh one, bit for bit
        n1, n2 = (10, 14) if p < 100 else (130, 160)
        cfg = m1_config(p=p, n1=n1, n2=n2, rho=0.5, request=CutoffRequest.m2_logit(0.3, 0.1))
        pop = make_population(cfg)
        x = np.full((n1 + n2, p), np.nan)
        monkeypatch.setattr(sim, "cores", lambda: 2)  # a helper wherever one would start
        with one_blas_thread(helper=False):
            for i in range(3):
                fresh = run_trial(cfg, pop, np.random.default_rng(i))
                assert run_trial(cfg, pop, np.random.default_rng(i), x) == fresh
            alone = [run_trial(cfg, pop, sim._trial_rng(cfg.seed, i)) for i in range(3)]
        assert sim._run_chunk(cfg, pop, 0, 3) == alone

    def test_trial_record_bounds(self):
        with pytest.raises(SimulationError):
            TrialRecord(cond_error=0.0, cutoff=1.0, fell_back=False)
        with pytest.raises(SimulationError):
            TrialRecord(cond_error=1.0, cutoff=1.0, fell_back=False)

    def test_trial_record_is_slotted(self):
        rec = TrialRecord(cond_error=0.125, cutoff=-3.5, fell_back=True)
        assert TrialRecord.__slots__ == ("cond_error", "cutoff", "fell_back")
        assert not hasattr(rec, "__dict__")
        with pytest.raises(FrozenInstanceError):
            rec.cutoff = 0.0
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(rec, protocol=protocol))
            assert back == rec and hash(back) == hash(rec)
            assert (back.cond_error, back.cutoff, back.fell_back) == (0.125, -3.5, True)

    def test_trial_records_are_small(self):
        # a run keeps every record: with its two floats and its list slot a
        # slotted record takes about 113 bytes, one with a __dict__ about 152
        count = 10_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            records = [TrialRecord(cond_error=(i + 0.5) / count, cutoff=-float(i),
                                   fell_back=i % 2 == 0) for i in range(count)]
            allocated = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(records) == count
        assert allocated / count <= 125

    def test_m2_trial_runs(self, rng):
        cfg = m1_config(p=8, n1=12, n2=12, request=CutoffRequest.m2_logit(0.3, 0.1))
        pop = make_population(cfg)
        rec = run_trial(cfg, pop, rng)
        assert 0.0 < rec.cond_error < 1.0
        assert not rec.fell_back


class TestDeterminism:
    def test_same_seed_same_records(self):
        cfg = m1_config(reps=30, seed=99)
        r1 = run_simulation(cfg)
        r2 = run_simulation(cfg)
        assert r1.records == r2.records

    def test_worker_count_invariance(self, two_cores):
        cfg1 = m1_config(reps=64, seed=5, workers=1)
        cfg2 = m1_config(reps=64, seed=5, workers=2)
        r1 = run_simulation(cfg1)
        r2 = run_simulation(cfg2)
        assert two_cores == [2]  # the records crossed processes
        assert r1.records == r2.records
        assert r1.n_excluded == r2.n_excluded

    def test_pool_is_capped_at_the_cores(self, monkeypatch):
        # 64 workers on 3 cores: a pool of 3, each chunk told of 3
        # processes, and the records of one worker
        seen = {"max_workers": [], "processes": set()}

        class InlinePool:  # starts no process
            def __init__(self, max_workers):
                seen["max_workers"].append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, fn, *columns):
                seen["processes"].update(columns[-1])
                return map(fn, *columns)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(sim, "cores", lambda: 3)
        cfg = m1_config(reps=64, seed=5)
        one = run_simulation(cfg)
        many = run_simulation(replace(cfg, workers=64))
        assert seen == {"max_workers": [3], "processes": {3}}
        assert record_bytes(many) == record_bytes(one)
        assert many.n_excluded == one.n_excluded

    def test_worker_count_invariance_above_n(self, two_cores):
        # p = 256 > N = 32: the Gram products run where BLAS may use threads
        cfg = m1_config(p=256, n1=16, n2=16, rho=0.5, reps=32, seed=5)
        r1 = run_simulation(replace(cfg, workers=1))
        r2 = run_simulation(replace(cfg, workers=2))
        assert two_cores == [2]
        assert record_bytes(r1) == record_bytes(r2)
        assert r1.n_excluded == r2.n_excluded

    def test_shared_data_across_requests(self):
        # same seed means the two confidence variants see identical draws
        cfg_n = m1_config(p=8, n1=16, n2=16, reps=10, seed=3,
                          request=CutoffRequest.m2_normal(0.3, 0.2))
        cfg_l = replace(cfg_n, request=CutoffRequest.m2_logit(0.3, 0.2))
        rn = run_simulation(cfg_n)
        rl = run_simulation(cfg_l)
        # cutoffs differ, but both saw the same training data; with a looser
        # gamma the normal variant is less conservative here
        assert all(a.cutoff != b.cutoff for a, b in zip(rn.records, rl.records))

    def test_monotone_error_in_alpha(self):
        cfg1 = m1_config(p=8, n1=16, n2=16, reps=60, seed=11, request=CutoffRequest.m1(0.1))
        cfg2 = replace(cfg1, request=CutoffRequest.m1(0.2))
        cfg3 = replace(cfg1, request=CutoffRequest.m1(0.35))
        a1 = attained_error_rate(run_simulation(cfg1).records).value
        a2 = attained_error_rate(run_simulation(cfg2).records).value
        a3 = attained_error_rate(run_simulation(cfg3).records).value
        assert a1 < a2 < a3


def record_bytes(res):
    return np.array([(r.cond_error, r.cutoff, r.fell_back) for r in res.records]).tobytes()


#: Runs the criterion-2 design for three trials in a fresh interpreter and
#: prints the hash of its record bytes.
_RECORD_HASH = """
import hashlib
import numpy as np
from eddr.calibration import CutoffRequest
from eddr.simulate import SimConfig, run_simulation
cfg = SimConfig(p=1024, n1=256, n2=256, rho=0.5, reps=3, seed=99, request=CutoffRequest.m1(0.3))
res = run_simulation(cfg)
rows = np.array([(r.cond_error, r.cutoff, r.fell_back) for r in res.records])
print(len(res.records), hashlib.sha256(rows.tobytes()).hexdigest())
"""


class TestThreads:
    @pytest.mark.parametrize("rows", [1, 2, 127, BLOCK_ROWS])
    def test_small_group_is_one_draw(self, rows):
        pop = make_population(m1_config(p=12, rho=0.4))
        want = np.random.default_rng(8).standard_normal((rows, 12)) * pop.sd + pop.mu1
        got = pop.sample_group(pop.mu1, rows, np.random.default_rng(8))
        assert got.tobytes() == want.tobytes()
        out = np.full((rows, 12), np.nan)
        pop.sample_group(pop.mu1, rows, np.random.default_rng(8), out=out)
        assert out.tobytes() == want.tobytes()

    def test_large_group_draws_blocks_from_spawned_children(self):
        # block 0 from the generator, block k >= 1 from its k-th spawned child
        pop = make_population(m1_config(p=12, rho=0.4))
        rows = 2 * BLOCK_ROWS + 5
        rng = np.random.default_rng(8)
        kids = rng.spawn(2)
        z = np.vstack([rng.standard_normal((BLOCK_ROWS, 12)),
                       kids[0].standard_normal((BLOCK_ROWS, 12)),
                       kids[1].standard_normal((5, 12))])
        want = z * pop.sd + pop.mu2
        got = pop.sample_group(pop.mu2, rows, np.random.default_rng(8))
        assert got.tobytes() == want.tobytes()

    def test_records_do_not_depend_on_the_helper(self, monkeypatch):
        # p = 420 > N = 398: three blocks for group 1, two for group 2, the
        # dual Gram split; the helper forced off (one core) and on (two)
        cfg = m1_config(p=420, n1=2 * BLOCK_ROWS + 10, n2=BLOCK_ROWS + 4, rho=0.5, reps=4)
        pop = make_population(cfg)
        helpers = []

        @contextlib.contextmanager
        def spy(helper):
            with one_blas_thread(helper) as executor:
                helpers.append(executor is not None)
                yield executor

        monkeypatch.setattr(sim, "one_blas_thread", spy)
        monkeypatch.setattr(sim, "cores", lambda: 1)
        off = run_simulation(cfg, pop)
        monkeypatch.setattr(sim, "cores", lambda: 2)
        on = run_simulation(cfg, pop)
        assert record_bytes(off) == record_bytes(on)
        assert helpers == [False, openblas() is not None]

    @needs_openblas
    def test_share_on_the_helper_thread_runs_inline(self):
        # the helper's own share() must not queue behind itself on its one-worker pool
        me = threading.get_ident
        with one_blas_thread(helper=True) as pool:
            # the block's first share starts the helper thread, which must
            # still leave the first task to the caller
            here = share(_meeting())
            on_helper = pool.submit(share, [me, me, me]).result(timeout=10)
        assert len(set(on_helper)) == 1 and on_helper[0] != me()
        assert here == [me(), on_helper[0]]
        assert share([me, me]) == [me(), me()]

    @needs_openblas
    def test_block_without_helper_hides_the_outer_one(self):
        lib = openblas()
        me = threading.get_ident
        other = []
        with one_blas_thread(helper=True):
            with one_blas_thread(helper=False) as inner:
                assert inner is None
                assert share([me, me]) == [me(), me()]
            assert len(set(share(_meeting()))) == 2 and lib.get_threads() == 1
            with pytest.raises(SimulationError, match="forced"):
                with one_blas_thread(helper=False):
                    assert share([me, me]) == [me(), me()]
                    raise SimulationError("forced")
            assert len(set(share(_meeting()))) == 2 and lib.get_threads() == 1
            # another thread does not see this thread's helper
            thread = threading.Thread(target=lambda: other.append((me(), share([me, me]))))
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
        ident, got = other[0]
        assert got == [ident, ident] and ident != me()
        assert share([me, me]) == [me(), me()]

    @needs_openblas
    def test_share_runs_each_task_once_in_order(self):
        # many small tasks with frequent thread switches: a task lost or run
        # twice shows in its own count, a misplaced result in the order
        counts = [0] * 500

        def task(i):
            counts[i] += 1
            return 3 * i

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with one_blas_thread(helper=True):
                for _ in range(20):
                    counts[:] = [0] * 500
                    tasks = [*_meeting(), *(lambda i=i: task(i) for i in range(2, 500))]
                    got = share(tasks)
                    assert counts[2:] == [1] * 498
                    assert got[2:] == [3 * i for i in range(2, 500)]
                    assert len(set(got[:2])) == 2
        finally:
            sys.setswitchinterval(switch)

    @needs_openblas
    def test_share_keeps_the_numpy_error_state(self):
        meet = threading.Barrier(2, timeout=10)

        def task():
            meet.wait()
            return threading.get_ident(), np.geterr()["over"]

        with one_blas_thread(helper=True), np.errstate(over="ignore"):
            got = share([task, task])
        assert len({ident for ident, _ in got}) == 2
        assert [state for _, state in got] == ["ignore", "ignore"]

    def test_share_without_a_helper_stops_at_the_first_error(self):
        ran = []
        tasks = [lambda: ran.append(0), lambda: 1 / 0, lambda: ran.append(2)]
        with pytest.raises(ZeroDivisionError):
            share(tasks)
        assert ran == [0]

    @needs_openblas
    def test_share_raises_the_first_error_in_task_order(self):
        # task 1 fails first in time, task 0 first in task order; neither
        # thread starts task 2 once a task has failed
        failed, ran = threading.Event(), []
        meet = threading.Barrier(2, timeout=10)

        def first():
            meet.wait()
            assert failed.wait(timeout=10)
            raise SimulationError("first")

        def second():
            meet.wait()
            failed.set()
            raise ValueError("second")

        # a task that started finishes before share() raises
        def slow():
            meet.wait()
            time.sleep(0.2)
            ran.append("slow")

        def failing():
            meet.wait()
            raise ValueError("early")

        with one_blas_thread(helper=True):
            with pytest.raises(SimulationError, match="first"):
                share([first, second, lambda: ran.append("after")])
            assert ran == []
            with pytest.raises(ValueError, match="early"):
                share([failing, slow, lambda: ran.append("after")])
            assert ran == ["slow"]

    @needs_openblas
    def test_records_do_not_depend_on_blas_threads(self):
        # ROADMAP item 1's gate: p = 1024 is above OpenBLAS's threading threshold
        src = os.path.dirname(os.path.dirname(os.path.abspath(sim.__file__)))
        hashes = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", _RECORD_HASH], capture_output=True,
                                  text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            hashes.append(proc.stdout.split())
        assert hashes[0][0] == "3"
        assert hashes[0] == hashes[1]

    @needs_openblas
    def test_blas_threads_restored(self, monkeypatch):
        lib = openblas()
        old = lib.get_threads()
        seen = []
        real = sim.run_trial

        def spy(cfg, pop, rng, x):
            seen.append(lib.get_threads())
            return real(cfg, pop, rng, x)

        def failing(cfg, pop, rng, x):
            raise SimulationError("forced")

        cfg = m1_config(p=64, n1=BLOCK_ROWS + 1, n2=4, rho=0.5, reps=3)
        lib.set_threads(3)
        try:
            pop = make_population(cfg)
            assert lib.get_threads() == 3
            with pytest.raises(NotPositiveDefiniteError):
                make_population(m1_config(p=150, rho=0.95, bandwidth=50))
            assert lib.get_threads() == 3
            monkeypatch.setattr(sim, "run_trial", spy)
            run_simulation(cfg, pop)
            assert seen == [1, 1, 1] and lib.get_threads() == 3
            monkeypatch.setattr(sim, "run_trial", failing)
            with pytest.raises(SimulationError, match="forced"):
                run_simulation(cfg)
            assert lib.get_threads() == 3
        finally:
            lib.set_threads(old)


class TestExclusions:
    def test_infeasible_trials_fail_run_when_frequent(self, monkeypatch):
        def always_infeasible(cfg, pop, rng, x):
            raise CalibrationInfeasibleError("forced")

        monkeypatch.setattr(sim, "run_trial", always_infeasible)
        with pytest.raises(SimulationError):
            run_simulation(m1_config(reps=20))

    def test_rare_exclusions_are_counted(self, monkeypatch):
        real = sim.run_trial
        calls = {"n": 0}

        def sometimes(cfg, pop, rng, x):
            calls["n"] += 1
            if calls["n"] == 1:
                raise CalibrationInfeasibleError("forced once")
            return real(cfg, pop, rng, x)

        monkeypatch.setattr(sim, "run_trial", sometimes)
        res = run_simulation(m1_config(reps=4000, seed=2))
        assert res.n_excluded == 1
        assert len(res.records) == 3999

    def test_fixed_point_m2_trials_are_not_refused_for_a_tiny_error(self, monkeypatch):
        # the fixed-point anchor can evaluate the law where (e0 (1 - e0))^2
        # underflows; four of these 300 trials were once refused for it
        real = sim.run_trial
        reasons = []

        def recording(cfg, pop, rng, x):
            try:
                return real(cfg, pop, rng, x)
            except CalibrationInfeasibleError as exc:
                reasons.append(str(exc))
                raise

        monkeypatch.setattr(sim, "run_trial", recording)
        request = CutoffRequest.m2_logit(0.1, 0.01, anchor="fixed-point")
        res = run_simulation(SimConfig(p=8, n1=16, n2=16, rho=0.5, reps=300, seed=77,
                                       request=request))
        assert not [r for r in reasons if "underflows" in r]
        assert res.n_excluded == 0


class TestAggregates:
    def records(self, values):
        return [TrialRecord(cond_error=v, cutoff=0.0, fell_back=False) for v in values]

    def test_attained_error_rate(self):
        stat = attained_error_rate(self.records([0.1, 0.1, 0.1]))
        assert stat.value == pytest.approx(0.1)
        assert stat.se == pytest.approx(0.0, abs=1e-15)

    def test_attained_confidence_level(self):
        recs = self.records([0.05, 0.15, 0.25, 0.35])
        stat = attained_confidence_level(recs, 0.2)
        assert stat.value == pytest.approx(0.5)
        assert stat.se == pytest.approx(np.sqrt(0.25 / 4))

    def test_boundary_counts_as_below(self):
        recs = self.records([0.2, 0.3])
        assert attained_confidence_level(recs, 0.2).value == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            attained_error_rate([])
        with pytest.raises(ValueError):
            attained_confidence_level([], 0.1)


class TestLogitVariantIsConservative:
    def test_acl_meets_confidence_across_parameter_grid(self):
        # at desk scale the logit-calibrated rule should attain at least the
        # requested confidence within Monte Carlo fuzz: acl + 3 se >= 1 - beta
        for beta in (0.10, 0.05, 0.01):
            for eu in (0.20, 0.10):
                cfg = SimConfig(p=64, n1=64, n2=64, rho=0.0, reps=4000, seed=606,
                                request=CutoffRequest.m2_logit(eu, beta), workers=2)
                acl = attained_confidence_level(run_simulation(cfg).records, eu)
                assert acl.value + 3 * acl.se >= 1 - beta, (beta, eu, acl)


class TestConfigValidation:
    def test_bad_reps(self):
        with pytest.raises(ValueError):
            m1_config(reps=0)

    def test_bad_rho(self):
        with pytest.raises(ValueError):
            m1_config(rho=1.0)

    @pytest.mark.parametrize("size", ["p", "n1"])
    def test_fractional_size_rejected(self, size):
        # once accepted, and the run then ended in a raw TypeError
        with pytest.raises(DimensionError, match=f"{size} must be an integer"):
            m1_config(**{size: 8.5})

    def test_m2_needs_the_estimate_all_sample_size(self):
        # n = n1 + n2 - 2: 6 is too small for M2's eight estimates, 7 is enough
        m2 = CutoffRequest.m2_logit(0.2, 0.1)
        with pytest.raises(DimensionError, match="n >= 7, got n = 6"):
            m1_config(n1=4, n2=4, request=m2)
        assert m1_config(n1=4, n2=5, request=m2).n1 == 4
        assert m1_config(n1=4, n2=4).n2 == 4

    def test_bad_workers(self):
        with pytest.raises(ValueError):
            m1_config(workers=0)

    @pytest.mark.parametrize("name, value", [
        ("reps", 2.5), ("seed", 1.5), ("bandwidth", 2.5), ("workers", 1.0),
    ])
    def test_fractional_count_rejected(self, name, value):
        # once accepted: reps and seed then ended in a TypeError, bandwidth
        # in an IndexError, and workers = 1.0 ran
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            m1_config(**{name: value})

    def test_numpy_integer_counts_stored_as_int(self):
        cfg = m1_config(reps=np.int64(3), seed=np.uint32(2), bandwidth=np.int8(1))
        assert all(type(getattr(cfg, k)) is int for k in ("reps", "seed", "bandwidth"))

    @pytest.mark.parametrize("request_", [CutoffRequest.m2_normal, CutoffRequest.m2_logit])
    @pytest.mark.parametrize("knob, message", [
        ({"anchor": "bogus"}, "unknown anchor 'bogus'"),
        ({"logit_variance": "nope"}, "unknown logit variance convention 'nope'"),
    ])
    def test_calibration_knobs_outside_choices(self, request_, knob, message):
        # the knobs travel in the M2 request, rejected when it is built,
        # before any config or trial exists; the config has no field for them
        with pytest.raises(ValueError, match=message):
            request_(0.2, 0.1, **knob)
        with pytest.raises(TypeError):
            m1_config(request=request_(0.2, 0.1), **knob)

    def test_sampling_law_matches_sigma(self):
        # draws at a banded p = 256 design have mean mu1 and covariance
        # diag(lam), sigma in its eigenbasis: every entry within 6 Monte
        # Carlo standard errors
        pop = make_population(m1_config(p=256, rho=0.2))
        lam = pop.sd**2
        assert np.allclose(lam, np.linalg.eigvalsh(band_sigma(256, 0.2)), rtol=1e-10)
        m = 6000
        x = pop.sample_group(pop.mu1, m, np.random.default_rng(4)) - pop.mu1
        mean_z = x.mean(axis=0) / np.sqrt(lam / m)
        cov = np.diag(lam)
        cov_se = np.sqrt((np.outer(lam, lam) + cov**2) / m)
        cov_z = (x.T @ x / m - cov) / cov_se
        assert np.abs(mean_z).max() < 6.0
        assert np.abs(cov_z).max() < 6.0
