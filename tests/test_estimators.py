"""Spectral and signal-strength estimators.

Hand values, scaling/rotation laws, exact unbiasedness of the trace
estimators against the symbolic oracle, and small Monte Carlo sanity
checks (the full-size calibration lives in the acceptance suite).
"""

from dataclasses import astuple, fields
from fractions import Fraction

import numpy as np
import pytest

from eddr.core import TwoSampleSummary, pooled_summary
from eddr.estimators import (
    a1_from_traces,
    a2_from_traces,
    a3_from_traces,
    a4_coefficients,
    a4_from_traces,
    delta0_from_stats,
    delta1_from_stats,
    delta2_from_stats,
    delta3_from_stats,
    Estimates,
    estimate_all,
    estimate_low,
)
from eddr.exceptions import DimensionError

from conftest import random_orthogonal
from oracles import WishartPolyOracle, pmul


def summary_with(s, xbar1, xbar2, n1, n2):
    return TwoSampleSummary.from_covariance(xbar1, xbar2, s, n1, n2)


def gaussian_summary(rng, n1=8, n2=9, p=5):
    x1 = rng.standard_normal((n1, p)) + 0.8
    x2 = rng.standard_normal((n2, p))
    return pooled_summary(x1, x2)


class TestTraceEstimators:
    def test_a1_identity(self):
        s = summary_with(np.eye(4), np.zeros(4), np.zeros(4), 5, 5)
        assert estimate_low(s)[0] == pytest.approx(1.0)
        s2 = summary_with(2 * np.eye(4), np.zeros(4), np.zeros(4), 5, 5)
        assert estimate_low(s2)[0] == pytest.approx(2.0)

    def test_a2_hand_example(self):
        # n = 4, p = 2, S = I: (16/36) * (2 - 4/4) = 4/9
        s = summary_with(np.eye(2), np.zeros(2), np.zeros(2), 3, 3)
        assert estimate_low(s)[1] == pytest.approx(4.0 / 9.0)

    def test_a2_zero_matrix(self):
        s = summary_with(np.zeros((2, 2)), np.zeros(2), np.zeros(2), 3, 3)
        assert estimate_low(s)[1] == 0.0

    def test_a3_hand_example(self):
        # n = 6, p = 2, S = I: (36/3200) * (36*2 - 18*4 + 2*8) = 0.18
        s = summary_with(np.eye(2), np.zeros(2), np.zeros(2), 4, 4)
        assert a3_from_traces(s.t1, s.t2, s.t3, s.n, s.p) == pytest.approx(0.18)

    def test_a4_zero_matrix(self):
        s = summary_with(np.zeros((3, 3)), np.zeros(3), np.zeros(3), 5, 6)
        assert estimate_all(s).a4 == 0.0

    def test_minimum_sample_sizes(self):
        with pytest.raises(DimensionError, match="n1, n2 >= 2"):  # n = 1: no summary
            summary_with(np.eye(2), np.zeros(2), np.zeros(2), 2, 1)
        estimate_low(summary_with(np.eye(2), np.zeros(2), np.zeros(2), 2, 2))  # n = 2 suffices
        small = summary_with(np.eye(2), np.zeros(2), np.zeros(2), 4, 4)  # n = 6
        with pytest.raises(DimensionError, match="n >= 7, got n = 6"):
            estimate_all(small)


class TestDeltaEstimators:
    def test_equal_means_keeps_centring_term(self):
        s = summary_with(np.eye(3), np.ones(3), np.ones(3), 4, 4)
        expected = -(8 * 3 / 16) * 1.0  # -(N p / (n1 n2)) a1
        d0 = estimate_low(s)[2]
        assert d0 == pytest.approx(expected)
        assert d0 < 0

    def test_degenerate_zero(self):
        s = summary_with(np.zeros((3, 3)), np.ones(3), np.ones(3), 4, 4)
        assert estimate_low(s)[2:] == (0.0, 0.0)

    def test_delta2_degenerate_hand_value(self):
        # equal means and S = I: only the centring terms survive
        p, n1, n2 = 2, 5, 5
        s = summary_with(np.eye(p), np.ones(p), np.ones(p), n1, n2)
        est = estimate_all(s)
        n = Fraction(s.n)
        pf, n_tot = Fraction(p), Fraction(n1 + n2)
        a1f, a2f, a3f = Fraction(1), Fraction(0), Fraction(0)
        # exact re-derivation with rational arithmetic (a2, a3 vanish at S = I
        # only via their bias corrections; recompute them honestly)
        t1, t2, t3 = Fraction(p), Fraction(p), Fraction(p)
        a2f = n**2 / (pf * (n + 2) * (n - 1)) * (t2 - t1**2 / n)
        a3f = n**2 / ((n + 4) * (n + 2) * (n - 1) * (n - 2) * pf) * (
            n**2 * t3 - 3 * n * t2 * t1 + 2 * t1**3
        )
        d1f = Fraction(0) - n_tot * pf / Fraction(n1 * n2) * a2f
        centre = n_tot * pf / Fraction(n1 * n2) * ((n + 1) / n * a3f + pf / n * a1f * a2f)
        expected = (Fraction(0) - pf / n * a1f * d1f - centre) / (1 + 1 / n)
        assert est.d2 == pytest.approx(float(expected), rel=1e-12)

    def test_homogeneity_degrees(self, rng):
        x1 = rng.standard_normal((9, 4)) + 1.0
        x2 = rng.standard_normal((10, 4))
        t = 1.7
        s1 = pooled_summary(x1, x2)
        s2 = pooled_summary(t * x1, t * x2)
        e1, e2 = estimate_all(s1), estimate_all(s2)
        for i, (v1, v2) in enumerate(zip((e1.a1, e1.a2, e1.a3, e1.a4),
                                         (e2.a1, e2.a2, e2.a3, e2.a4)), start=1):
            assert v2 == pytest.approx(t ** (2 * i) * v1, rel=1e-9)
        for i, (v1, v2) in enumerate(zip((e1.d0, e1.d1, e1.d2, e1.d3),
                                         (e2.d0, e2.d1, e2.d2, e2.d3))):
            assert v2 == pytest.approx(t ** (2 * i + 2) * v1, rel=1e-9)

    def test_rotation_invariance(self, rng):
        x1 = rng.standard_normal((9, 5)) + 0.5
        x2 = rng.standard_normal((8, 5))
        q = random_orthogonal(5, rng)
        s1 = pooled_summary(x1, x2)
        s2 = pooled_summary(x1 @ q.T, x2 @ q.T)
        for v1, v2 in zip(astuple(estimate_all(s1)), astuple(estimate_all(s2))):
            assert v2 == pytest.approx(v1, rel=1e-9)

    def test_estimate_all_matches_individual_ops(self, rng):
        # bit for bit: both functions evaluate the kernels once each, in order
        for p, scale in [(5, 1.0), (5, 1e-5), (5, 3e4), (40, 1.0), (40, 1e-5), (40, 3e4)]:
            x1 = scale * (rng.standard_normal((8, p)) + 0.8)  # N = 17
            x2 = scale * rng.standard_normal((9, p))
            s = pooled_summary(x1, x2)
            n, n1, n2 = s.n, s.n1, s.n2
            a1 = a1_from_traces(s.t1, p)
            a2 = a2_from_traces(s.t1, s.t2, n, p)
            a3 = a3_from_traces(s.t1, s.t2, s.t3, n, p)
            a4 = a4_from_traces(s.t1, s.t2, s.t3, s.t4, n, p)
            d0 = delta0_from_stats(s.q0, a1, n1, n2, p)
            d1 = delta1_from_stats(s.q1, a2, n1, n2, p)
            d2 = delta2_from_stats(s.q2, d1, a1, a2, a3, n, n1, n2, p)
            d3 = delta3_from_stats(s.q3, d1, d2, a1, a2, a3, a4, n, n1, n2, p)
            est = estimate_all(s)
            assert (est.a1, est.a2, est.d0, est.d1) == estimate_low(s)
            assert (est.a1, est.a2, est.a3, est.a4) == (a1, a2, a3, a4)
            assert (est.d0, est.d1, est.d2, est.d3) == (d0, d1, d2, d3)

    def test_estimate_all_is_one_value(self, rng):
        # one frozen value holds all eight, traces first, in the paper's order
        x1 = rng.standard_normal((8, 30)) + 0.8
        x2 = rng.standard_normal((9, 30))
        s = pooled_summary(x1, x2)
        est = estimate_all(s)
        assert type(est) is Estimates
        assert [f.name for f in fields(est)] == ["a1", "a2", "a3", "a4", "d0", "d1", "d2", "d3"]
        assert (est.a1, est.a2, est.d0, est.d1) == estimate_low(s)


@pytest.fixture(scope="module")
def oracle():
    return WishartPolyOracle([[1, 0], [1, 2]])


class TestExactUnbiasedness:
    """Exact expectations of the trace estimators via the symbolic oracle.

    The estimators are linear in products of tr(W^k), so their exact means
    follow from the oracle's moments; everything is rational arithmetic.
    """

    def test_a2_a3_a4_exactly_unbiased(self, oracle):
        p = 2
        sigma = oracle.sigma()
        s2m = [[sum(sigma[i][k] * sigma[k][j] for k in range(p)) for j in range(p)] for i in range(p)]
        s3m = [[sum(s2m[i][k] * sigma[k][j] for k in range(p)) for j in range(p)] for i in range(p)]
        s4m = [[sum(s3m[i][k] * sigma[k][j] for k in range(p)) for j in range(p)] for i in range(p)]
        a_true = {
            2: Fraction(s2m[0][0] + s2m[1][1], p),
            3: Fraction(s3m[0][0] + s3m[1][1], p),
            4: Fraction(s4m[0][0] + s4m[1][1], p),
        }
        tw = {k: oracle.tr_w_k(k) for k in (1, 2, 3, 4)}
        for n in (7, 9, 12):
            nf = Fraction(n)
            expect = lambda poly: oracle.expect(poly, n)
            e_t2 = expect(tw[2]) / nf**2
            e_t1sq = expect(pmul(tw[1], tw[1])) / nf**2
            e_a2 = nf**2 / (p * (nf + 2) * (nf - 1)) * (e_t2 - e_t1sq / nf)
            assert e_a2 == a_true[2]
            e_t3 = expect(tw[3]) / nf**3
            e_t2t1 = expect(pmul(tw[2], tw[1])) / nf**3
            e_t1cb = expect(pmul(pmul(tw[1], tw[1]), tw[1])) / nf**3
            e_a3 = nf**2 / ((nf + 4) * (nf + 2) * (nf - 1) * (nf - 2) * p) * (
                nf**2 * e_t3 - 3 * nf * e_t2t1 + 2 * e_t1cb
            )
            assert e_a3 == a_true[3]
            b1, b2, b3, b4, b5 = a4_coefficients(nf)
            e_t4 = expect(tw[4]) / nf**4
            e_t3t1 = expect(pmul(tw[3], tw[1])) / nf**4
            e_t2sq = expect(pmul(tw[2], tw[2])) / nf**4
            e_t1sqt2 = expect(pmul(pmul(tw[1], tw[1]), tw[2])) / nf**4
            e_t1_4 = expect(pmul(pmul(tw[1], tw[1]), pmul(tw[1], tw[1]))) / nf**4
            e_a4 = (b1 * e_t4 + b2 * e_t3t1 + b3 * e_t2sq + b4 * e_t1sqt2 + b5 * e_t1_4) / p
            assert e_a4 == a_true[4]

    @pytest.mark.parametrize("n1, n2", [(5, 4), (6, 6)])
    def test_delta0_delta1_exactly_unbiased(self, oracle, n1, n2):
        # d ~ N(delta, kappa Sigma) is independent of S, so each q_k may be
        # replaced by E[q_k | S] = (delta' W^k delta + kappa tr(Sigma W^k)) / n^k,
        # with W = n S ~ Wishart(n, Sigma); the kernels then run on the
        # oracle's polynomials unchanged
        n1, n2, p = Fraction(n1), Fraction(n2), Fraction(2)
        n = n1 + n2 - 2
        kappa = (n1 + n2) / (n1 * n2)
        delta = [1, 3]
        sigma = oracle.sigma()
        outer = [[di * dj for dj in delta] for di in delta]
        poly = lambda a, k: oracle.poly(oracle.tr_aw_k(a, k))
        q0 = sum(di * di for di in delta) + kappa * (sigma[0][0] + sigma[1][1])
        q1 = (poly(outer, 1) + kappa * poly(sigma, 1)) / n
        t1 = oracle.poly(oracle.tr_w_k(1)) / n
        t2 = oracle.poly(oracle.tr_w_k(2)) / n**2
        d0 = delta0_from_stats(q0, a1_from_traces(t1, p), n1, n2, p)
        d1 = delta1_from_stats(q1, a2_from_traces(t1, t2, n, p), n1, n2, p)
        assert oracle.expect(d0.terms, int(n)) == sum(di * di for di in delta)
        assert oracle.expect(d1.terms, int(n)) == sum(
            delta[i] * sigma[i][j] * delta[j] for i in range(2) for j in range(2)
        )

    def test_kernels_exact_under_fractions(self):
        # the scalar kernels stay in rational arithmetic end to end
        n, p = Fraction(8), Fraction(3)
        out = a2_from_traces(Fraction(5), Fraction(11), n, p)
        assert isinstance(out, Fraction)
        out3 = a3_from_traces(Fraction(5), Fraction(11), Fraction(31), n, p)
        assert isinstance(out3, Fraction)
        out4 = a4_from_traces(Fraction(5), Fraction(11), Fraction(31), Fraction(97), n, p)
        assert isinstance(out4, Fraction)


class TestMonteCarloSanity:
    def test_a1_a2_means_small_design(self, rng):
        # Sigma = I, n = 20, p = 12: unbiasedness within 4 standard errors
        n, p, reps = 20, 12, 4000
        draws_a1 = np.empty(reps)
        draws_a2 = np.empty(reps)
        for i in range(reps):
            y = rng.standard_normal((n, p))
            w = y.T @ y
            s = w / n
            t1 = np.trace(s)
            t2 = float(np.vdot(s, s))
            draws_a1[i] = t1 / p
            draws_a2[i] = a2_from_traces(t1, t2, n, p)
        for draws, target in ((draws_a1, 1.0), (draws_a2, 1.0)):
            se = draws.std(ddof=1) / np.sqrt(reps)
            assert abs(draws.mean() - target) < 4 * se

    def test_delta0_mean_small_design(self, rng):
        # two-sample design with |mu1 - mu2|^2 = 5
        m, p, reps = 12, 16, 3000
        mu = np.sqrt(5.0 / p) * np.ones(p)
        vals = np.empty(reps)
        for i in range(reps):
            x1 = rng.standard_normal((m, p)) + mu
            x2 = rng.standard_normal((m, p))
            s = pooled_summary(x1, x2)
            vals[i] = estimate_low(s)[2]
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean() - 5.0) < 4 * se
