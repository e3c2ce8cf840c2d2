"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  The Monte Carlo criteria use fixed seeds so the whole
suite is reproducible bit for bit; tolerances are as stated per criterion.

Design-size convention for the table-reproduction criteria: the reference
tables label each row by a sample size N with two equal groups; those
values are reproducible only when N is read as the *per-group* size
(n1 = n2 = N), which is the convention used here.
"""

import math

import numpy as np

from eddr.calibration import CutoffRequest, m1_cutoff
from eddr.core import Dims, pooled_summary, std_normal_cdf, std_normal_quantile
from eddr.error_model import LimitParams, h_u, h_uv, h_v
from eddr.estimators import (
    a1_from_traces,
    a2_from_traces,
    a3_from_traces,
    a4_from_traces,
    delta0_from_stats,
    delta1_from_stats,
    delta2_from_stats,
    delta3_from_stats,
)
from eddr.simulate import (
    SimConfig,
    attained_confidence_level,
    attained_error_rate,
    conditional_error,
    error_inputs,
    make_population,
    run_simulation,
)
from eddr.wishart import (
    _MOMENT_KERNELS,
    _unit_invariants,
    chi_square_moment,
    mc_moment_suite,
    scalar_reduction_suite,
    var_a2,
)

WORKERS = 2


def report(num, ok, detail):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def test_criterion_01_expected_error_table_identity_cell():
    cfg = SimConfig(p=64, n1=64, n2=64, rho=0.0, reps=20000, seed=20250803,
                    request=CutoffRequest.m1(0.1), workers=WORKERS)
    ae = attained_error_rate(run_simulation(cfg).records)
    target, tol = 0.101258, 0.003
    report(1, abs(ae.value - target) <= tol,
           f"ae={ae.value:.6f} target={target} tol={tol} (mc se {ae.se:.6f})")


def test_criterion_02_expected_error_heaviest_cell():
    cfg = SimConfig(p=1024, n1=256, n2=256, rho=0.5, reps=2000, seed=99,
                    request=CutoffRequest.m1(0.3), workers=WORKERS)
    ae = attained_error_rate(run_simulation(cfg).records)
    target, tol = 0.300352, 0.004
    report(2, abs(ae.value - target) <= tol,
           f"ae={ae.value:.6f} target={target} tol={tol} (mc se {ae.se:.6f})")


def test_criterion_03_confidence_table_identity_cell():
    base = dict(p=64, n1=64, n2=64, rho=0.0, reps=20000, seed=42, workers=WORKERS)
    res_n = run_simulation(SimConfig(**base, request=CutoffRequest.m2_normal(0.20, 0.10)))
    res_l = run_simulation(SimConfig(**base, request=CutoffRequest.m2_logit(0.20, 0.10)))
    acl_n = attained_confidence_level(res_n.records, 0.20)
    acl_l = attained_confidence_level(res_l.records, 0.20)
    ok = abs(acl_n.value - 0.884) <= 0.008 and abs(acl_l.value - 0.906) <= 0.008
    report(3, ok,
           f"acl_normal={acl_n.value:.4f} (target 0.884±0.008), "
           f"acl_logit={acl_l.value:.4f} (target 0.906±0.008)")


def test_criterion_04_confidence_table_banded_cell():
    cfg = SimConfig(p=64, n1=64, n2=64, rho=0.5, reps=20000, seed=20250802,
                    request=CutoffRequest.m2_logit(0.10, 0.01), workers=WORKERS)
    acl = attained_confidence_level(run_simulation(cfg).records, 0.10)
    report(4, abs(acl.value - 0.998) <= 0.005,
           f"acl_logit={acl.value:.4f} target=0.998 tol=0.005")


def test_criterion_05_expected_error_cutoff_is_algebraically_exact():
    rng = np.random.default_rng(1905)
    worst = 0.0
    for _ in range(1000):
        u0 = rng.uniform(-5.0, 5.0)
        v0 = rng.uniform(0.1, 25.0)
        alpha = rng.uniform(0.001, 0.999)
        lp = LimitParams(u0=u0, v0=v0)
        c = m1_cutoff(lp, alpha).c
        worst = max(worst, abs(std_normal_cdf((u0 + c) / math.sqrt(v0)) - alpha))
    report(5, worst <= 1e-12, f"max |achieved - alpha| = {worst:.2e} over 1000 triples")


def test_criterion_06_wishart_scalar_reduction_exact():
    rows = scalar_reduction_suite(n_max=20)
    ok = all(r.passed for r in rows)
    # the two repaired coefficients are load-bearing: restoring either
    # literal misprint must break the reduction
    inv = _unit_invariants()
    vi, vii = _MOMENT_KERNELS["vi"], _MOMENT_KERNELS["vii"]
    literal_breaks = True
    for n in range(2, 21):
        diff_vi = n * ((n**3 + 3 * n + 24 * n + 20) - (n**3 + 3 * n**2 + 24 * n + 20)) * 2
        diff_vii = 2 * n * (
            (n**5 + 7 * n**4 + 34 * n**3 + 78 * n**2 + 72)
            - (n**4 + 7 * n**3 + 34 * n**2 + 78 * n + 72)
        )
        literal_breaks &= vi(n, inv) + diff_vi != chi_square_moment(n, 6)
        literal_breaks &= vii(n, inv) + diff_vii != chi_square_moment(n, 6)
    report(6, ok and literal_breaks,
           "all 7 formulas reduce to prod(n+2k) for n=1..20; "
           "literal misprinted sixth-power coefficients fail the reduction")


def test_criterion_07_wishart_mc_suite():
    rows = mc_moment_suite(p=3, n=10, draws=1_000_000, seed=20240901)
    ok = all(r.passed for r in rows)
    zs = ", ".join(f"{r.name}:{r.detail.split('|z|=')[1].split()[0]}" for r in rows)
    report(7, ok, f"9 moments within 5 mc standard errors of 1e6 draws ({zs})")


def _batched_wishart_trace_stats(n, p, reps, seed, chunk=1000):
    rng = np.random.default_rng(seed)
    out = {k: [] for k in ("t1", "t2", "t3", "t4")}
    done = 0
    eye = np.eye(p)
    from eddr.wishart import _sample_wishart_batch

    while done < reps:
        m = min(chunk, reps - done)
        w = _sample_wishart_batch(n, eye, rng, m) / n
        w2 = w @ w
        out["t1"].append(np.trace(w, axis1=1, axis2=2))
        out["t2"].append(np.einsum("bij,bij->b", w, w))
        out["t3"].append(np.einsum("bij,bij->b", w2, w))
        out["t4"].append(np.einsum("bij,bij->b", w2, w2))
        done += m
    return {k: np.concatenate(v) for k, v in out.items()}


def _batched_two_sample_estimates(m_rows, p, reps, seed, chunk=500):
    rng = np.random.default_rng(seed)
    mu = math.sqrt(5.0 / p) * np.ones(p)
    n = 2 * m_rows - 2
    rows = {k: [] for k in ("d0", "d1", "d2", "d3")}
    done = 0
    while done < reps:
        b = min(chunk, reps - done)
        x1 = rng.standard_normal((b, m_rows, p)) + mu
        x2 = rng.standard_normal((b, m_rows, p))
        c1 = x1 - x1.mean(axis=1, keepdims=True)
        c2 = x2 - x2.mean(axis=1, keepdims=True)
        s = (np.einsum("bij,bik->bjk", c1, c1) + np.einsum("bij,bik->bjk", c2, c2)) / n
        d = x1.mean(axis=1) - x2.mean(axis=1)
        s2 = s @ s
        t1 = np.trace(s, axis1=1, axis2=2)
        t2 = np.einsum("bij,bij->b", s, s)
        t3 = np.einsum("bij,bij->b", s2, s)
        t4 = np.einsum("bij,bij->b", s2, s2)
        sd = np.einsum("bij,bj->bi", s, d)
        q0 = np.einsum("bi,bi->b", d, d)
        q1 = np.einsum("bi,bi->b", d, sd)
        q2 = np.einsum("bi,bi->b", sd, sd)
        q3 = np.einsum("bi,bij,bj->b", sd, s, sd)
        a1 = a1_from_traces(t1, p)
        a2 = a2_from_traces(t1, t2, n, p)
        a3 = a3_from_traces(t1, t2, t3, n, p)
        a4 = a4_from_traces(t1, t2, t3, t4, n, p)
        d0 = delta0_from_stats(q0, a1, m_rows, m_rows, p)
        d1 = delta1_from_stats(q1, a2, m_rows, m_rows, p)
        d2 = delta2_from_stats(q2, d1, a1, a2, a3, n, m_rows, m_rows, p)
        d3 = delta3_from_stats(q3, d1, d2, a1, a2, a3, a4, n, m_rows, m_rows, p)
        for key, val in zip(("d0", "d1", "d2", "d3"), (d0, d1, d2, d3)):
            rows[key].append(val)
        done += b
    return {k: np.concatenate(v) for k, v in rows.items()}


def test_criterion_08_estimator_calibration():
    n = p = 64
    stats = _batched_wishart_trace_stats(n, p, reps=100_000, seed=8801)
    a1 = a1_from_traces(stats["t1"], p)
    a2 = a2_from_traces(stats["t1"], stats["t2"], n, p)
    a3 = a3_from_traces(stats["t1"], stats["t2"], stats["t3"], n, p)
    a4 = a4_from_traces(stats["t1"], stats["t2"], stats["t3"], stats["t4"], n, p)
    msgs = []
    ok = True

    var_a1_mc = float(np.var(a1, ddof=1))
    var_a1_exact = 2.0 / (n * p)
    ok &= abs(var_a1_mc / var_a1_exact - 1.0) <= 0.10
    msgs.append(f"var(a1) mc/exact={var_a1_mc / var_a1_exact:.3f} (10%)")

    var_a2_mc = float(np.var(a2, ddof=1))
    var_a2_ref = var_a2(n, p, 1.0, 1.0)
    ok &= abs(var_a2_mc / var_a2_ref - 1.0) <= 0.15
    msgs.append(f"var(a2) mc/ref={var_a2_mc / var_a2_ref:.3f} (15%)")

    for name, vals in (("a1", a1), ("a2", a2), ("a3", a3), ("a4", a4)):
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        z = abs(vals.mean() - 1.0) / se
        ok &= z <= 3.0
        msgs.append(f"mean({name}) z={z:.2f}")

    deltas = _batched_two_sample_estimates(m_rows=33, p=64, reps=20_000, seed=8802)
    for name, vals in deltas.items():
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        z = abs(vals.mean() - 5.0) / se
        ok &= z <= 3.0
        msgs.append(f"mean({name}) z={z:.2f}")
    report(8, ok, "; ".join(msgs))


def test_criterion_09_error_law_at_fixed_cutoff():
    # p = n = 128, identity covariance, separation design, alpha = 0.1
    p, m = 128, 65
    n = 2 * m - 2
    dims = Dims(m, m, p)
    u0_true = -2.5
    v0_true = 5.0 + (2 * m) * p / (m * m)
    c_star = math.sqrt(v0_true) * std_normal_quantile(0.1) - u0_true
    e0 = std_normal_cdf((u0_true + c_star) / math.sqrt(v0_true))
    hu = h_u(5.0, 1.0, dims)
    hv = h_v(5.0, 1.0, dims)
    huv = h_uv(5.0, 1.0, dims)
    sv = math.sqrt(v0_true)
    w = (u0_true + c_star) / sv
    pdf = math.exp(-0.5 * w * w) / math.sqrt(2 * math.pi)
    grad = np.array([pdf / sv, -(u0_true + c_star) / (2 * v0_true * sv) * pdf])
    tau2 = float(grad @ np.array([[hu, huv], [huv, hv]]) @ grad)

    cfg = SimConfig(p=p, n1=m, n2=m, rho=0.0, reps=1, seed=0, request=CutoffRequest.m1(0.1))
    pop = make_population(cfg)
    reps = 10_000
    ce = np.empty(reps)
    u_tilde = np.empty(reps)
    v_stat = np.empty(reps)
    for i in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(909091, i)))
        x1 = pop.sample_group(pop.mu1, m, rng)
        x2 = pop.sample_group(pop.mu2, m, rng)
        err = error_inputs(pooled_summary(x1, x2), pop)
        ce[i] = conditional_error(err, c_star)
        u_tilde[i] = err.u_tilde
        v_stat[i] = err.v
    msgs = []
    ok = True

    se_mean = ce.std(ddof=1) / math.sqrt(reps)
    z_mean = abs(ce.mean() - e0) / se_mean
    ok &= z_mean <= 4.0
    msgs.append(f"mean(ce) z={z_mean:.2f} (4 se)")

    var_ratio = float(np.var(ce, ddof=1)) / tau2
    ok &= abs(var_ratio - 1.0) <= 0.15
    msgs.append(f"var(ce)/tau2={var_ratio:.3f} (15%)")

    for name, vals, target, sd_ref in (
        ("u", u_tilde, u0_true, math.sqrt(hu)),
        ("v", v_stat, v0_true, math.sqrt(hv)),
    ):
        z = abs(vals.mean() - target) / (vals.std(ddof=1) / math.sqrt(reps))
        ok &= z <= 4.0
        msgs.append(f"mean({name}) z={z:.2f}")
        ratio = float(np.var(vals, ddof=1)) / sd_ref**2
        ok &= abs(ratio - 1.0) <= 0.10
        msgs.append(f"var({name}) ratio={ratio:.3f} (10%)")
    cross_ratio = float(np.cov(u_tilde, v_stat)[0, 1]) / huv
    ok &= abs(cross_ratio - 1.0) <= 0.10
    msgs.append(f"cov(u,v) ratio={cross_ratio:.3f} (10%)")

    # the gradient entering tau2 must match central finite differences
    def error_at(u, v):
        return std_normal_cdf((u + c_star) / math.sqrt(v))

    hu_step = 1e-5 * abs(u0_true)
    hv_step = 1e-5 * v0_true
    fd = np.array([
        (error_at(u0_true + hu_step, v0_true) - error_at(u0_true - hu_step, v0_true)) / (2 * hu_step),
        (error_at(u0_true, v0_true + hv_step) - error_at(u0_true, v0_true - hv_step)) / (2 * hv_step),
    ])
    grad_rel = float(np.max(np.abs(fd - grad) / np.abs(grad)))
    ok &= grad_rel <= 1e-5
    msgs.append(f"gradient fd rel err={grad_rel:.2e} (1e-5)")
    report(9, ok, "; ".join(msgs))


def test_criterion_10_simulate_outputs_independent_of_worker_count(tmp_path, capsys, two_cores):
    from eddr.cli import main

    args = ["simulate", "--n-grid", "32", "--p-grid", "8,16", "--reps", "400",
            "--seed", "77", "--method", "m2-normal", "--eu", "0.25", "--beta", "0.1"]
    assert main(args + ["--workers", "1", "--out", str(tmp_path / "w1")]) == 0
    assert main(args + ["--workers", "2", "--out", str(tmp_path / "w2")]) == 0
    capsys.readouterr()
    assert two_cores == [2, 2]  # one pool per cell of the workers=2 run
    same_csv = (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()
    same_json = (tmp_path / "w1.json").read_bytes() == (tmp_path / "w2.json").read_bytes()
    report(10, same_csv and same_json,
           "simulate CSV and sidecar bytes identical for workers=1 and workers=2")
