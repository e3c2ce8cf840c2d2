"""Limit parameters, moment functions, and the error law."""

import dataclasses
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

from eddr.core import Dims, std_normal_pdf
from eddr.error_model import (
    AsymptoticLaw,
    LimitParams,
    asymptotic_law,
    estimator_covariance,
    expected_error,
    h_u,
    h_uv,
    h_v,
    limit_values,
    statistic_covariance,
    var_delta1,
)
from eddr.estimators import Estimates
from eddr.exceptions import CalibrationInfeasibleError
from eddr.wishart import _sample_wishart_batch

from oracles import WishartPolyOracle

PHI_M125 = 0.105649773666855257688772764026

DIMS = Dims(n1=32, n2=32, p=64)


def estimates(a1=1.0, a2=1.0, a3=1.0, a4=1.0, d0=5.0, d1=5.0, d2=5.0, d3=5.0):
    return Estimates(a1=a1, a2=a2, a3=a3, a4=a4, d0=d0, d1=d1, d2=d2, d3=d3)


def limits(e, dims):
    return LimitParams(*limit_values(e.d0, e.d1, e.a2, dims))


class TestLimitParams:
    def test_hand_example(self):
        lp = limits(estimates(), DIMS)
        assert lp.u0 == pytest.approx(-2.5)
        assert lp.v0 == pytest.approx(9.0)  # 5 + 64*64/1024

    def test_zero_distance(self):
        lp = limits(estimates(d0=0.0), DIMS)
        assert lp.u0 == 0.0

    def test_infeasible_scale_raises(self):
        with pytest.raises(CalibrationInfeasibleError):
            limits(estimates(a2=0.01, d1=-10.0), DIMS)

    def test_no_silent_clamp(self):
        with pytest.raises(CalibrationInfeasibleError):
            LimitParams(u0=0.0, v0=0.0)


class TestExpectedError:
    def test_centered(self):
        lp = LimitParams(u0=-2.5, v0=4.0)
        assert expected_error(lp, 2.5) == pytest.approx(0.5, abs=1e-14)

    def test_hand_value(self):
        lp = LimitParams(u0=-2.5, v0=4.0)
        assert expected_error(lp, 0.0) == pytest.approx(PHI_M125, abs=1e-12)

    def test_monotone_in_cutoff(self):
        lp = LimitParams(u0=-2.5, v0=4.0)
        vals = [expected_error(lp, c) for c in np.linspace(-3, 3, 25)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestMomentFunctions:
    def test_balanced_design_cross_term(self):
        # second term of the cross moment vanishes when n1 = n2
        assert h_uv(1.0, 123.0, DIMS) == pytest.approx(-2.0 / 32)

    def test_h_u_hand_value(self):
        assert h_u(1.0, 1.0, DIMS) == pytest.approx(0.09375)

    def test_all_zero(self):
        assert h_u(0.0, 0.0, DIMS) == 0.0
        assert h_v(0.0, 0.0, DIMS) == 0.0
        assert h_uv(0.0, 0.0, DIMS) == 0.0

    def test_h_v_formula(self):
        d = Dims(n1=32, n2=32, p=64)
        assert h_v(5.0, 1.0, d) == pytest.approx(4 * 64 * 5 / 1024 + 2 * 64**2 * 64 / 1024**2)


class TestAsymptoticLaw:
    def test_isotropic_theta_gives_gradient_norm(self):
        # design with h_u = h_v = s and h_uv = 0
        dims = Dims(n1=4, n2=4, p=1)
        s_val = 0.5
        e = Estimates(a1=1.0, a2=0.0, a3=0.0, a4=0.0, d0=2.0, d1=4 * s_val, d2=0.0, d3=s_val / 2)
        lp = limits(e, dims)
        law = asymptotic_law(lp, statistic_covariance(e, dims), c=0.3)
        assert np.allclose(law.theta, s_val * np.eye(2))
        assert law.tau2 == pytest.approx(s_val * float(law.grad @ law.grad), rel=1e-12)

    def test_centered_point(self):
        e = estimates()
        lp = limits(e, DIMS)
        law = asymptotic_law(lp, statistic_covariance(e, DIMS), c=-lp.u0)
        assert law.e0 == pytest.approx(0.5, abs=1e-14)
        assert law.grad[1] == pytest.approx(0.0, abs=1e-16)
        expected = law.theta[0, 0] * std_normal_pdf(0.0) ** 2 / lp.v0
        assert law.tau2 == pytest.approx(expected, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        from eddr.core import std_normal_cdf

        e = estimates()
        lp = limits(e, DIMS)
        c = 0.7
        law = asymptotic_law(lp, statistic_covariance(e, DIMS), c=c)

        def f(u, v):
            return std_normal_cdf((u + c) / math.sqrt(v))

        hu = 1e-5 * max(1.0, abs(lp.u0))
        hv = 1e-5 * lp.v0
        fd_u = (f(lp.u0 + hu, lp.v0) - f(lp.u0 - hu, lp.v0)) / (2 * hu)
        fd_v = (f(lp.u0, lp.v0 + hv) - f(lp.u0, lp.v0 - hv)) / (2 * hv)
        assert law.grad[0] == pytest.approx(fd_u, rel=1e-5)
        assert law.grad[1] == pytest.approx(fd_v, rel=1e-5)

    def test_degenerate_error_rejected(self):
        e = estimates()
        lp = limits(e, DIMS)
        with pytest.raises(CalibrationInfeasibleError):
            asymptotic_law(lp, statistic_covariance(e, DIMS), c=1e6)

    def test_negative_variance_rejected(self):
        # a huge positive cross estimate makes the plug-in matrix indefinite
        e = estimates(a2=0.01, a3=0.0, a4=0.01, d0=5.0, d1=0.5, d2=50.0, d3=0.01)
        lp = limits(e, DIMS)
        with pytest.raises(CalibrationInfeasibleError):
            asymptotic_law(lp, statistic_covariance(e, DIMS), c=0.0)

    def test_nan_variance_rejected(self):
        e = estimates(a3=math.nan)
        lp = limits(e, DIMS)
        with pytest.raises(CalibrationInfeasibleError):
            asymptotic_law(lp, statistic_covariance(e, DIMS), c=0.0)

    def test_unknown_flags_rejected(self):
        # the law has no options: the logit-scale spread belongs to M2's cut-off
        e = estimates()
        lp = limits(e, DIMS)
        with pytest.raises(TypeError):
            asymptotic_law(lp, statistic_covariance(e, DIMS), c=0.0, logit_variance="delta")
        assert list(inspect.signature(asymptotic_law).parameters) == ["lp", "theta", "c"]
        assert [f.name for f in dataclasses.fields(AsymptoticLaw)] == ["e0", "tau2", "theta", "grad"]


class TestThetaSources:
    def test_statistic_source_entries(self):
        e = estimates()
        theta = statistic_covariance(e, DIMS)
        assert theta[0, 0] == pytest.approx(h_u(e.d1, e.a2, DIMS))
        assert theta[1, 1] == pytest.approx(h_v(e.d3, e.a4, DIMS))
        assert theta[0, 1] == pytest.approx(h_uv(e.d2, e.a3, DIMS))
        assert theta[0, 1] == theta[1, 0]

    def test_estimator_source_entries(self):
        e = estimates(a3=0.7, a4=1.6)
        theta = estimator_covariance(e, DIMS)
        # N = 64, n1 n2 = 1024, p = 64: Var[d'd]/4 and -Cov[d'd, d'Sd]/2
        assert theta[0, 0] == pytest.approx((4 * 64 * 5 / 1024 + 2 * 64**2 * 64 / 1024**2) / 4)
        assert theta[1, 1] == pytest.approx(var_delta1(DIMS, e.d1, e.d3, e.a2, e.a4))
        assert theta[0, 1] == pytest.approx(
            -(4 * 64 * 5 / 1024 + 2 * 64**2 * 64 * 0.7 / 1024**2) / 2
        )

    def test_estimator_cross_term_matches_monte_carlo(self):
        # Cov(u0_hat, v0_hat) = -Cov(d'd, d'S d)/2 for d ~ N(delta, c Sigma)
        # independent of S ~ W(n, Sigma)/n.  Sigma != I separates tr(Sigma^3)
        # from tr(Sigma^4): the entry is -2.633 with a3 and -3.091 with a4,
        # about 30 Monte Carlo standard errors apart.
        m, p, draws, batch = 30, 8, 100_000, 20_000
        dims, n, c = Dims(m, m, p), 2 * m - 2, 2.0 / m
        lam = np.linspace(0.3, 3.0, p)
        mu = np.sqrt(5.0 / p) * np.ones(p)
        rng = np.random.default_rng(8)
        d0, d1 = [], []
        for _ in range(draws // batch):
            d = mu + np.sqrt(c * lam) * rng.standard_normal((batch, p))
            w = _sample_wishart_batch(n, np.diag(np.sqrt(lam)), rng, batch)
            d0.append(np.einsum("bi,bi->b", d, d))
            d1.append(np.einsum("bi,bij,bj->b", d, w, d) / n)
        d0, d1 = np.concatenate(d0), np.concatenate(d1)
        emp = -float(np.cov(d0, d1)[0, 1]) / 2.0
        se = float(((d0 - d0.mean()) * (d1 - d1.mean())).std(ddof=1)) / np.sqrt(draws) / 2.0
        a = [float(np.mean(lam**k)) for k in range(1, 5)]
        delta = [float(mu @ (lam**k * mu)) for k in range(4)]
        theta = estimator_covariance(Estimates(*a, *delta), dims)
        assert abs(theta[0, 1] - emp) < 5 * se

    @pytest.mark.parametrize("n1, n2", [(5, 4), (6, 6), (20, 20)])
    def test_estimator_entries_against_exact_moments(self, n1, n2):
        # u0_hat = -(q0 - kappa p a1_hat)/2 and v0_hat = q1, with d ~ N(delta,
        # kappa Sigma) independent of W = n S ~ Wishart(n, Sigma): given S,
        # Var(q1) = 2 kappa^2 tr(Sigma S Sigma S) + 4 kappa delta' S Sigma S delta,
        # Cov(q0, q1) = 2 kappa^2 tr(Sigma^2 S) + 4 kappa delta' Sigma S delta,
        # Var(q0) = 2 kappa^2 tr(Sigma^2) + 4 kappa delta' Sigma delta, and
        # E[q1 | S] = tr(A W)/n with A = delta delta' + kappa Sigma.  The
        # oracle takes the exact expectations over W.
        oracle = WishartPolyOracle([[1, 0], [1, 2]])
        sigma, delta, p = oracle.sigma(), [1, 3], 2
        n = n1 + n2 - 2
        kappa = Fraction(n1 + n2, n1 * n2)
        mul = lambda a, b: [[sum(a[i][k] * b[k][j] for k in range(p)) for j in range(p)]
                            for i in range(p)]
        outer = [[di * dj for dj in delta] for di in delta]
        powers = [[[int(i == j) for j in range(p)] for i in range(p)]]
        for _ in range(4):
            powers.append(mul(powers[-1], sigma))
        a = [Fraction(powers[k][0][0] + powers[k][1][1], p) for k in (1, 2, 3, 4)]
        d = [sum(delta[i] * powers[k][i][j] * delta[j] for i in range(p) for j in range(p))
             for k in range(4)]
        expect = lambda poly: oracle.expect(poly.terms, n)
        tr = lambda m, k=1: oracle.poly(oracle.tr_aw_k(m, k))
        both = lambda m, b: oracle.poly(oracle.tr_awkbwm(m, b, 1, 1))
        cov = lambda x, y: expect(x * y) - expect(x) * expect(y)
        tr_w, tr_aw = tr(powers[0]), tr(outer) + kappa * tr(sigma)
        var_v = (expect(2 * kappa**2 * both(sigma, sigma) + 4 * kappa * both(outer, sigma)) / n**2
                 + cov(tr_aw, tr_aw) / n**2)
        var_q0 = 2 * kappa**2 * p * a[1] + 4 * kappa * d[1]
        var_u = (var_q0 + kappa**2 * cov(tr_w, tr_w) / n**2) / 4
        cov_q0_q1 = expect(2 * kappa**2 * tr(powers[2]) + 4 * kappa * tr(mul(outer, sigma))) / n
        cross = -(cov_q0_q1 - kappa * cov(tr_w, tr_aw) / n**2) / 2
        theta = estimator_covariance(Estimates(*map(float, a + d)), Dims(n1, n2, p))
        assert theta[1, 1] == pytest.approx(float(var_v), rel=1e-12)
        # the first-order entries leave out a1_hat's own fluctuation
        assert float(var_u) == pytest.approx(theta[0, 0] + kappa**2 * p * a[1] / (2 * n),
                                             rel=1e-12)
        assert float(cross) == pytest.approx(theta[0, 1] + (kappa * d[2] + kappa**2 * p * a[2]) / n,
                                             rel=1e-12)

    def test_estimator_variance_dominates(self):
        # the plug-in pair fluctuates more than the conditional statistics
        e = estimates()
        stat = statistic_covariance(e, DIMS)
        est = estimator_covariance(e, DIMS)
        assert est[0, 0] > stat[0, 0]
        assert est[1, 1] > stat[1, 1]

    def test_law_uses_requested_source(self):
        e = estimates()
        lp = limits(e, DIMS)
        stat, est = statistic_covariance(e, DIMS), estimator_covariance(e, DIMS)
        law_s = asymptotic_law(lp, stat, c=0.5)
        law_e = asymptotic_law(lp, est, c=0.5)
        assert law_e.tau2 > law_s.tau2
        assert law_s.theta is stat and law_e.theta is est
