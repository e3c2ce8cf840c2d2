"""Limit parameters, moment functions, and the error law."""

import dataclasses
import inspect
import math

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
)
from eddr.estimators import DeltaEstimates, TraceEstimates
from eddr.exceptions import CalibrationInfeasibleError
from eddr.wishart import _sample_wishart_batch, var_delta1

PHI_M125 = 0.105649773666855257688772764026

DIMS = Dims(n1=32, n2=32, p=64)


def traces(a1=1.0, a2=1.0, a3=1.0, a4=1.0):
    return TraceEstimates(a1=a1, a2=a2, a3=a3, a4=a4)


def deltas(d0=5.0, d1=5.0, d2=5.0, d3=5.0):
    return DeltaEstimates(d0=d0, d1=d1, d2=d2, d3=d3)


def limits(d, t, dims):
    return LimitParams(*limit_values(d.d0, d.d1, t.a2, dims))


class TestLimitParams:
    def test_hand_example(self):
        lp = limits(deltas(), traces(), DIMS)
        assert lp.u0 == pytest.approx(-2.5)
        assert lp.v0 == pytest.approx(9.0)  # 5 + 64*64/1024

    def test_zero_distance(self):
        lp = limits(deltas(d0=0.0), traces(), DIMS)
        assert lp.u0 == 0.0

    def test_infeasible_scale_raises(self):
        with pytest.raises(CalibrationInfeasibleError):
            limits(deltas(d1=-10.0), traces(a2=0.01), DIMS)

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
        t = TraceEstimates(a1=1.0, a2=0.0, a3=0.0, a4=0.0)
        d = DeltaEstimates(d0=2.0, d1=4 * s_val, d2=0.0, d3=s_val / 2)
        lp = limits(d, t, dims)
        law = asymptotic_law(lp, statistic_covariance(d, t, dims), c=0.3)
        assert np.allclose(law.theta, s_val * np.eye(2))
        assert law.tau2 == pytest.approx(s_val * float(law.grad @ law.grad), rel=1e-12)

    def test_centered_point(self):
        t, d = traces(), deltas()
        lp = limits(d, t, DIMS)
        law = asymptotic_law(lp, statistic_covariance(d, t, DIMS), c=-lp.u0)
        assert law.e0 == pytest.approx(0.5, abs=1e-14)
        assert law.grad[1] == pytest.approx(0.0, abs=1e-16)
        expected = law.theta[0, 0] * std_normal_pdf(0.0) ** 2 / lp.v0
        assert law.tau2 == pytest.approx(expected, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        from eddr.core import std_normal_cdf

        t, d = traces(), deltas()
        lp = limits(d, t, DIMS)
        c = 0.7
        law = asymptotic_law(lp, statistic_covariance(d, t, DIMS), c=c)

        def f(u, v):
            return std_normal_cdf((u + c) / math.sqrt(v))

        hu = 1e-5 * max(1.0, abs(lp.u0))
        hv = 1e-5 * lp.v0
        fd_u = (f(lp.u0 + hu, lp.v0) - f(lp.u0 - hu, lp.v0)) / (2 * hu)
        fd_v = (f(lp.u0, lp.v0 + hv) - f(lp.u0, lp.v0 - hv)) / (2 * hv)
        assert law.grad[0] == pytest.approx(fd_u, rel=1e-5)
        assert law.grad[1] == pytest.approx(fd_v, rel=1e-5)

    def test_degenerate_error_rejected(self):
        t, d = traces(), deltas()
        lp = limits(d, t, DIMS)
        with pytest.raises(CalibrationInfeasibleError):
            asymptotic_law(lp, statistic_covariance(d, t, DIMS), c=1e6)

    def test_negative_variance_rejected(self):
        # a huge positive cross estimate makes the plug-in matrix indefinite
        t = traces(a2=0.01, a3=0.0, a4=0.01)
        d = deltas(d0=5.0, d1=0.5, d2=50.0, d3=0.01)
        lp = limits(d, t, DIMS)
        with pytest.raises(CalibrationInfeasibleError):
            asymptotic_law(lp, statistic_covariance(d, t, DIMS), c=0.0)

    def test_nan_variance_rejected(self):
        t = traces(a3=math.nan)
        d = deltas()
        lp = limits(d, t, DIMS)
        with pytest.raises(CalibrationInfeasibleError):
            asymptotic_law(lp, statistic_covariance(d, t, DIMS), c=0.0)

    def test_unknown_flags_rejected(self):
        # the law has no options: the logit-scale spread belongs to M2's cut-off
        t, d = traces(), deltas()
        lp = limits(d, t, DIMS)
        with pytest.raises(TypeError):
            asymptotic_law(lp, statistic_covariance(d, t, DIMS), c=0.0, logit_variance="delta")
        assert list(inspect.signature(asymptotic_law).parameters) == ["lp", "theta", "c"]
        assert [f.name for f in dataclasses.fields(AsymptoticLaw)] == ["e0", "tau2", "theta", "grad"]


class TestThetaSources:
    def test_statistic_source_entries(self):
        t, d = traces(), deltas()
        theta = statistic_covariance(d, t, DIMS)
        assert theta[0, 0] == pytest.approx(h_u(d.d1, t.a2, DIMS))
        assert theta[1, 1] == pytest.approx(h_v(d.d3, t.a4, DIMS))
        assert theta[0, 1] == pytest.approx(h_uv(d.d2, t.a3, DIMS))
        assert theta[0, 1] == theta[1, 0]

    def test_estimator_source_entries(self):
        t, d = traces(a3=0.7, a4=1.6), deltas()
        theta = estimator_covariance(d, t, DIMS)
        # N = 64, n1 n2 = 1024, p = 64: Var[d'd]/4 and -Cov[d'd, d'Sd]/2
        assert theta[0, 0] == pytest.approx((4 * 64 * 5 / 1024 + 2 * 64**2 * 64 / 1024**2) / 4)
        assert theta[1, 1] == pytest.approx(var_delta1(DIMS, d.d1, d.d3, t.a2, t.a4))
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
        theta = estimator_covariance(DeltaEstimates(*delta), TraceEstimates(*a), dims)
        assert abs(theta[0, 1] - emp) < 5 * se

    def test_estimator_variance_dominates(self):
        # the plug-in pair fluctuates more than the conditional statistics
        t, d = traces(), deltas()
        stat = statistic_covariance(d, t, DIMS)
        est = estimator_covariance(d, t, DIMS)
        assert est[0, 0] > stat[0, 0]
        assert est[1, 1] > stat[1, 1]

    def test_law_uses_requested_source(self):
        t, d = traces(), deltas()
        lp = limits(d, t, DIMS)
        stat, est = statistic_covariance(d, t, DIMS), estimator_covariance(d, t, DIMS)
        law_s = asymptotic_law(lp, stat, c=0.5)
        law_e = asymptotic_law(lp, est, c=0.5)
        assert law_e.tau2 > law_s.tau2
        assert law_s.theta is stat and law_e.theta is est
