"""Cut-off calibration: the expected-error and confidence policies."""

import math

import numpy as np
import pytest

from eddr.calibration import (
    DEFAULT_LOGIT_VARIANCE,
    DEFAULT_M2_ANCHOR,
    CutoffRequest,
    CutoffResult,
    CutoffVariant,
    calibrate,
    gamma_logit,
    gamma_normal,
    m1_cutoff,
    m2_cutoff,
)
from eddr.core import Dims, pooled_summary, std_normal_cdf, std_normal_quantile
from eddr.error_model import (
    AsymptoticLaw,
    LimitParams,
    asymptotic_law,
    estimator_covariance,
    expected_error,
    limit_values,
)
from eddr.estimators import estimate_all
from eddr.exceptions import CalibrationInfeasibleError

# high-precision references (30-digit arithmetic)
M1_EXAMPLE_C = -0.0631031310892009339302066589
GAMMA_NORMAL_EXAMPLE = 0.1177573186524263642568075546
M2_EXAMPLE_C = -1.05881799977852357059693961
GAMMA_LOGIT_EXAMPLE = 0.132417540089994690785721735
GAMMA_NORMAL_OOR = -0.132634787404084110088560616
# logit variant of the GAMMA_NORMAL_EXAMPLE request (tau = 0.05), spread at
# that normal-scale gamma
GAMMA_LOGIT_SPREAD = {"plain": 0.162267529600164069519618425785,
                      "delta": 0.101750638152649775916305338344}
# eu = 0.1, beta = 0.01, tau = 0.1 (GAMMA_NORMAL_OOR) spread at e0 = 0.1:
# tau_ell = 1/3 (plain) or 10/9 (delta); cut-offs at u0 = -2.5, v0 = 9
FALLBACK_GAMMA = {"plain": 0.0486757561669539161207374852343,
                  "delta": 0.00830913805055295225521855918352}
FALLBACK_C = {"plain": -2.47349404017107278557914210039,
              "delta": -4.68513827427719349774084876219}

DIMS = Dims(n1=32, n2=32, p=64)


def law_with(tau2, e0=0.2):
    return AsymptoticLaw(e0=e0, tau2=tau2, theta=np.eye(2), grad=np.ones(2))


def logit_spread(req, gamma):
    """The tau_ell that gamma_logit turned into ``gamma`` for ``req``."""
    shift = math.log(req.eu / (1.0 - req.eu)) - math.log(gamma / (1.0 - gamma))
    return shift / std_normal_quantile(1.0 - req.beta)


class TestRequests:
    def test_m1_fields(self):
        req = CutoffRequest.m1(0.1)
        assert req.variant == CutoffVariant.M1 and req.alpha == 0.1

    def test_m2_fields(self):
        req = CutoffRequest.m2_logit(0.2, 0.05)
        assert req.eu == 0.2 and req.beta == 0.05
        assert (req.anchor, req.logit_variance) == (DEFAULT_M2_ANCHOR, DEFAULT_LOGIT_VARIANCE)
        # a directly built M2 request gets the same defaults
        assert CutoffRequest(CutoffVariant.M2_LOGIT, eu=0.2, beta=0.05) == req

    @pytest.mark.parametrize(
        "bad",
        [
            dict(variant=CutoffVariant.M1),
            dict(variant=CutoffVariant.M1, alpha=1.5),
            dict(variant=CutoffVariant.M1, alpha=0.1, eu=0.2),
            dict(variant=CutoffVariant.M2_NORMAL, eu=0.2),
            dict(variant=CutoffVariant.M2_LOGIT, eu=0.2, beta=0.1, alpha=0.3),
            dict(variant=CutoffVariant.M1, alpha=0.1, anchor="eu"),
            dict(variant=CutoffVariant.M1, alpha=0.1, logit_variance="delta"),
            dict(variant=CutoffVariant.M2_LOGIT, eu=0.2, beta=0.1, anchor="bogus"),
            dict(variant=CutoffVariant.M2_NORMAL, eu=0.2, beta=0.1, logit_variance="nope"),
        ],
    )
    def test_invalid_combinations(self, bad):
        with pytest.raises(ValueError):
            CutoffRequest(**bad)


class TestM1:
    def test_median_target(self):
        lp = LimitParams(u0=-2.5, v0=4.0)
        assert m1_cutoff(lp, 0.5).c == pytest.approx(2.5)

    def test_hand_example(self):
        lp = LimitParams(u0=-2.5, v0=4.0)
        assert m1_cutoff(lp, 0.1).c == pytest.approx(M1_EXAMPLE_C, abs=1e-9)

    def test_strictly_increasing_in_alpha(self):
        lp = LimitParams(u0=-2.5, v0=4.0)
        cuts = [m1_cutoff(lp, a).c for a in np.linspace(0.01, 0.99, 21)]
        assert all(b > a for a, b in zip(cuts, cuts[1:]))

    def test_algebraic_exactness(self, rng):
        for _ in range(200):
            u0 = rng.uniform(-5, 5)
            v0 = rng.uniform(0.1, 25.0)
            alpha = rng.uniform(0.001, 0.999)
            lp = LimitParams(u0=u0, v0=v0)
            c = m1_cutoff(lp, alpha).c
            assert abs(std_normal_cdf((u0 + c) / math.sqrt(v0)) - alpha) <= 1e-12

    def test_alpha_domain(self):
        lp = LimitParams(u0=0.0, v0=1.0)
        with pytest.raises(ValueError):
            m1_cutoff(lp, 1.0)


class TestGammaFormulas:
    def test_gamma_normal_zero_tau(self):
        assert gamma_normal(0.2, 0.05, 0.0) == pytest.approx(0.2)

    def test_gamma_normal_example(self):
        assert gamma_normal(0.2, 0.05, 0.05) == pytest.approx(GAMMA_NORMAL_EXAMPLE, abs=1e-9)

    def test_gamma_normal_out_of_range_example(self):
        assert gamma_normal(0.1, 0.01, 0.1) == pytest.approx(GAMMA_NORMAL_OOR, abs=1e-9)

    def test_gamma_logit_zero_tau(self):
        assert gamma_logit(0.2, 0.05, 0.0) == 0.2

    def test_gamma_logit_example(self):
        assert gamma_logit(0.2, 0.05, 0.3) == pytest.approx(GAMMA_LOGIT_EXAMPLE, abs=1e-12)

    def test_gamma_logit_matches_direct_formula(self, rng):
        from eddr.core import std_normal_quantile

        for _ in range(200):
            eu = rng.uniform(0.01, 0.99)
            beta = rng.uniform(0.01, 0.5)
            tau_ell = rng.uniform(0.0, 5.0)
            direct = eu / ((1 - eu) * math.exp(tau_ell * std_normal_quantile(1 - beta)) + eu)
            assert gamma_logit(eu, beta, tau_ell) == pytest.approx(direct, rel=1e-12)

    def test_gamma_logit_always_inside_unit_interval(self, rng):
        for _ in range(500):
            eu = rng.uniform(0.001, 0.999)
            beta = rng.uniform(0.001, 0.999)
            tau_ell = rng.uniform(0.0, 60.0)
            g = gamma_logit(eu, beta, tau_ell)
            assert 0.0 < g < 1.0

    def test_gamma_logit_large_tau_limit(self):
        assert gamma_logit(0.2, 0.05, 50.0) < 1e-30

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            gamma_normal(0.2, 0.05, -0.1)
        with pytest.raises(ValueError):
            gamma_logit(0.2, 0.05, -0.1)


class TestM2:
    def test_unit_a1_matches_m1_shape(self):
        # the cut-off is the m1 formula evaluated at gamma
        lp = LimitParams(u0=-2.5, v0=9.0)
        law = law_with(tau2=0.05**2)
        req = CutoffRequest.m2_normal(0.2, 0.05)
        res = m2_cutoff(lp, law, req)
        assert res.variant_used == CutoffVariant.M2_NORMAL
        assert res.gamma == pytest.approx(GAMMA_NORMAL_EXAMPLE, abs=1e-9)
        assert res.c == pytest.approx(m1_cutoff(lp, res.gamma).c, rel=1e-12)
        assert res.c == pytest.approx(M2_EXAMPLE_C, abs=1e-8)

    def test_normal_falls_back_when_out_of_range(self):
        lp = LimitParams(u0=-2.5, v0=9.0)
        # eu = 0.1, beta = 0.01, tau = 0.1: gamma < 0 -> logit route
        law = law_with(tau2=0.1**2, e0=0.1)
        req = CutoffRequest.m2_normal(0.1, 0.01)
        res = m2_cutoff(lp, law, req)
        assert res.fell_back
        assert res.variant_used == CutoffVariant.M2_LOGIT
        assert 0.0 < res.gamma < 1.0

    def test_logit_never_falls_back(self, rng):
        lp = LimitParams(u0=-2.5, v0=9.0)
        for _ in range(100):
            law = law_with(tau2=rng.uniform(1e-6, 4.0), e0=rng.uniform(0.01, 0.99))
            req = CutoffRequest.m2_logit(rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.5))
            res = m2_cutoff(lp, law, req)
            assert not res.fell_back
            assert res.variant_used == CutoffVariant.M2_LOGIT

    def test_normal_fallback_iff_gamma_out_of_range(self, rng):
        lp = LimitParams(u0=-2.5, v0=9.0)
        for _ in range(200):
            tau = rng.uniform(0.0, 0.3)
            eu = rng.uniform(0.02, 0.5)
            beta = rng.uniform(0.01, 0.5)
            law = law_with(tau2=tau**2, e0=eu)
            res = m2_cutoff(lp, law, CutoffRequest.m2_normal(eu, beta))
            g = gamma_normal(eu, beta, tau)
            assert res.fell_back == (not 0.0 < g < 1.0)

    def test_cutoff_monotone_in_confidence(self):
        # raising the confidence level (lowering beta) lowers the cut-off
        lp = LimitParams(u0=-2.5, v0=9.0)
        cuts = []
        for beta in (0.2, 0.1, 0.05, 0.02, 0.01):
            law = law_with(tau2=0.04**2)
            res = m2_cutoff(lp, law, CutoffRequest.m2_normal(0.2, beta))
            cuts.append(res.c)
        assert all(b <= a for a, b in zip(cuts, cuts[1:]))

    @pytest.mark.parametrize("convention", ["plain", "delta"])
    def test_logit_spread_at_normal_gamma(self, convention):
        lp = LimitParams(u0=-2.5, v0=9.0)
        req = CutoffRequest.m2_logit(0.2, 0.05, logit_variance=convention)
        res = m2_cutoff(lp, law_with(tau2=0.05**2), req)
        assert res.gamma == pytest.approx(GAMMA_LOGIT_SPREAD[convention], rel=1e-12)
        assert res.c == m1_cutoff(lp, res.gamma).c

    def test_plain_logit_spread_bound(self, rng):
        # g(1-g) <= 1/4, so the plain convention has tau_ell^2 >= 4 tau2
        lp = LimitParams(u0=-2.5, v0=9.0)
        for _ in range(100):
            tau2 = rng.uniform(1e-4, 0.01)
            req = CutoffRequest.m2_logit(rng.uniform(0.05, 0.5), rng.uniform(0.01, 0.5),
                                         logit_variance="plain")
            res = m2_cutoff(lp, law_with(tau2=tau2, e0=rng.uniform(0.01, 0.99)), req)
            assert logit_spread(req, res.gamma) ** 2 >= 4.0 * tau2 * (1.0 - 1e-9)

    @pytest.mark.parametrize("convention", ["plain", "delta"])
    @pytest.mark.parametrize("variant", [CutoffVariant.M2_NORMAL, CutoffVariant.M2_LOGIT],
                             ids=lambda v: v.value)
    def test_out_of_range_gamma_spreads_at_e0(self, variant, convention):
        lp = LimitParams(u0=-2.5, v0=9.0)
        req = CutoffRequest(variant, eu=0.1, beta=0.01, logit_variance=convention)
        res = m2_cutoff(lp, law_with(tau2=0.1**2, e0=0.1), req)
        assert res.variant_used == CutoffVariant.M2_LOGIT
        assert res.fell_back == (variant == CutoffVariant.M2_NORMAL)
        assert res.gamma == pytest.approx(FALLBACK_GAMMA[convention], rel=1e-12)
        assert res.c == pytest.approx(FALLBACK_C[convention], rel=1e-12)

    def test_law_too_close_to_zero_for_its_square_is_served(self):
        # e0 = Phi(-28) ~ 1e-172: (e0 (1 - e0))^2 underflows, but gamma lies
        # in (0,1), so the spread is taken there and the cut-off exists
        lp = LimitParams(u0=0.0, v0=1.0)
        law = asymptotic_law(lp, np.eye(2), c=-28.0)
        assert 0.0 < law.e0 < 1e-170
        req = CutoffRequest.m2_logit(0.1, 0.01)
        assert 0.0 < gamma_normal(req.eu, req.beta, math.sqrt(law.tau2)) < 1.0
        res = m2_cutoff(lp, law, req)
        assert res.c == m1_cutoff(lp, res.gamma).c
        assert not res.fell_back

    def test_m1_request_rejected(self):
        lp = LimitParams(u0=-2.5, v0=9.0)
        with pytest.raises(ValueError):
            m2_cutoff(lp, law_with(tau2=0.01), CutoffRequest.m1(0.1))

    @pytest.mark.parametrize("tau", [0.02, 0.1])  # normal route, and the logit fall-back
    def test_result_carries_its_limit_and_law(self, tau):
        lp = LimitParams(u0=-2.5, v0=9.0)
        req = CutoffRequest.m2_normal(0.1, 0.01)
        law = law_with(tau2=tau**2, e0=0.1)
        res = m2_cutoff(lp, law, req)
        assert res.fell_back == (tau == 0.1)
        assert res.limit is lp and res.law is law
        m1 = m1_cutoff(lp, 0.1)
        assert m1.limit is lp and m1.law is None
        # the law holds arrays, so it takes no part in equality
        assert res == m2_cutoff(lp, law_with(tau2=tau**2, e0=0.1), req)


class TestCalibrate:
    def setup_method(self):
        rng = np.random.default_rng(20240517)
        p = DIMS.p
        x1 = rng.standard_normal((DIMS.n1, p)) + np.sqrt(5.0 / p)
        x2 = rng.standard_normal((DIMS.n2, p))
        self.summary = pooled_summary(x1, x2)
        self.t, self.d = estimate_all(self.summary)

    def test_m1_route(self):
        out = calibrate(self.summary, CutoffRequest.m1(0.3))
        assert out.law is None
        assert out.limit == LimitParams(*limit_values(self.d.d0, self.d.d1, self.t.a2, DIMS))
        assert expected_error(out.limit, out.c) == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("p", [16, 200])  # N = 64: p <= N and p > N
    def test_m1_never_forms_the_high_power_product(self, p):
        # t3 and t4 come from one cached product, which only M2 needs
        rng = np.random.default_rng(7)
        x1 = rng.standard_normal((DIMS.n1, p)) + 0.3
        x2 = rng.standard_normal((DIMS.n2, p))
        summary = pooled_summary(x1, x2)
        calibrate(summary, CutoffRequest.m1(0.3))
        assert "_high_traces" not in vars(summary)
        estimate_all(summary)
        assert "_high_traces" in vars(summary)

    def test_m2_route_reports_law(self):
        out = calibrate(self.summary, CutoffRequest.m2_logit(0.2, 0.1))
        assert out.law is not None
        assert out.limit == LimitParams(*limit_values(self.d.d0, self.d.d1, self.t.a2, DIMS))
        assert out.law.e0 == pytest.approx(0.2, abs=1e-12)  # anchored at the bound
        assert 0.0 < out.gamma < 0.2
        assert out.c == m1_cutoff(out.limit, out.gamma).c

    def test_fixed_point_converges(self):
        req = CutoffRequest.m2_normal(0.2, 0.1, anchor="fixed-point")
        out_eu = calibrate(self.summary, CutoffRequest.m2_normal(0.2, 0.1, anchor="eu"))
        out_fp = calibrate(self.summary, req)
        # the self-consistent cut-off is less conservative here
        assert out_fp.c > out_eu.c
        lp = LimitParams(*limit_values(self.d.d0, self.d.d1, self.t.a2, DIMS))
        theta = estimator_covariance(self.d, self.t, DIMS)
        law = asymptotic_law(lp, theta, out_fp.c)
        res = m2_cutoff(lp, law, req)
        assert res.c == pytest.approx(out_fp.c, rel=1e-8)

    def test_fixed_point_stops_after_101_law_evaluations(self, monkeypatch):
        import eddr.calibration as cal

        calls = []

        def counting_law(lp, theta, c):
            calls.append(c)
            return asymptotic_law(lp, theta, c)

        def drifting_cutoff(lp, law, req):  # never self-consistent
            res = m2_cutoff(lp, law, req)
            return CutoffResult(c=calls[-1] + 1e-3, variant_used=res.variant_used, limit=lp,
                                gamma=res.gamma)

        monkeypatch.setattr(cal, "asymptotic_law", counting_law)
        monkeypatch.setattr(cal, "m2_cutoff", drifting_cutoff)
        with pytest.raises(CalibrationInfeasibleError, match="not self-consistent"):
            calibrate(self.summary, CutoffRequest.m2_normal(0.2, 0.1, anchor="fixed-point"))
        assert len(calls) == 1 + cal.FIXED_POINT_MAX_ITER == 101
        calls.clear()
        calibrate(self.summary, CutoffRequest.m2_normal(0.2, 0.1))
        assert len(calls) == 1

    def test_fixed_point_results_are_self_consistent(self, monkeypatch):
        # m2-logit at p = 8, N = 32: the map's slope at its fixed point is
        # below -1 here, so an undamped update falls into a 2-cycle and
        # its last iterate is no fixed point
        import eddr.simulate as sim

        seen = []

        def recording(summary, request):
            res = calibrate(summary, request)
            seen.append((summary, res))
            return res

        monkeypatch.setattr(sim, "calibrate", recording)
        req = CutoffRequest.m2_logit(0.1, 0.01, anchor="fixed-point")
        cfg = sim.SimConfig(p=8, n1=16, n2=16, rho=0.5, reps=50, seed=77, request=req)
        assert sim.run_simulation(cfg).n_excluded == 0
        assert len(seen) == 50
        for summary, res in seen:
            traces, deltas = estimate_all(summary)
            theta = estimator_covariance(deltas, traces, summary)
            again = m2_cutoff(res.limit, asymptotic_law(res.limit, theta, res.c), req).c
            assert abs(again - res.c) <= 1e-9 * (math.sqrt(res.limit.v0) + abs(res.c))

    def test_unknown_anchor_rejected(self):
        with pytest.raises(ValueError, match="unknown anchor 'nope'"):
            calibrate(self.summary, CutoffRequest.m2_normal(0.2, 0.1, anchor="nope"))
