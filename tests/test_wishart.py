"""Closed-form Wishart moments vs independent oracles, and the sampler.

The seven moment kernels are checked three ways:

* scalar reduction: at p = 1 every formula must equal the chi-square
  moment prod(n + 2k) exactly, in integer arithmetic;
* symbolic oracle: exact rational expectations built from the triangular
  decomposition at p = 2 and p = 3 must agree exactly for 8 consecutive
  n (pinning each degree-6-in-n polynomial identity);
* Monte Carlo (small here, full-size in the acceptance suite).
"""

from fractions import Fraction

import numpy as np
import pytest

from eddr.core import Dims
from eddr.exceptions import DimensionError
from eddr.verify import mc_moment_suite, scalar_reduction_suite
from eddr.wishart import (
    _MOMENT_KERNELS,
    MOMENT_POWERS,
    MomentQuery,
    all_moments,
    _quad_form_cov,
    chi_square_moment,
    quad_moment_mean,
    quad_moment_product,
    sample_wishart,
    trace_invariants,
    var_a1,
    var_a2,
    var_delta1,
)

from conftest import random_orthogonal, random_spd
from oracles import WishartPolyOracle, exact_trace_invariants, pmul

CASES = {
    2: dict(L=[[1, 0], [1, 2]], A=[[2, 1], [1, -1]], B=[[1, 3], [3, 0]]),
    3: dict(
        L=[[1, 0, 0], [1, 2, 0], [-1, 1, 3]],
        A=[[2, 1, 0], [1, -1, 1], [0, 1, 3]],
        B=[[1, 3, -1], [3, 0, 2], [-1, 2, 1]],
    ),
}


class TestChiSquareMoments:
    def test_reference_values(self):
        assert chi_square_moment(5, 1) == 5
        assert chi_square_moment(5, 2) == 35
        assert chi_square_moment(5, 3) == 5 * 7 * 9
        assert chi_square_moment(1, 6) == 1 * 3 * 5 * 7 * 9 * 11

    def test_scalar_reduction_suite(self):
        rows = scalar_reduction_suite(n_max=20)
        assert len(rows) == 7
        for row in rows:
            assert row.passed, row


class TestSymbolicOracle:
    @pytest.mark.parametrize("p", [2, 3])
    def test_all_moments_exact(self, p):
        case = CASES[p]
        orc = WishartPolyOracle(case["L"])
        inv = exact_trace_invariants(orc.sigma(), case["A"], case["B"])
        a_mat, b_mat = case["A"], case["B"]
        stats = {
            "i": pmul(orc.tr_aw_k(a_mat, 1), orc.tr_aw_k(b_mat, 1)),
            "ii": orc.tr_awkbwm(a_mat, b_mat, 1, 1),
            "iii": orc.tr_aw_k(a_mat, 3),
            "iv": pmul(orc.tr_aw_k(a_mat, 2), orc.tr_aw_k(b_mat, 2)),
            "v": orc.tr_awkbwm(a_mat, b_mat, 2, 2),
            "vi": pmul(orc.tr_aw_k(a_mat, 3), orc.tr_aw_k(b_mat, 3)),
            "vii": orc.tr_awkbwm(a_mat, b_mat, 3, 3),
        }
        for name, poly in stats.items():
            kernel = _MOMENT_KERNELS[name]
            for n in range(p, p + 8):
                assert kernel(n, inv) == orc.expect(poly, n), (name, n)

    def test_quadratic_forms_are_unit_wisharts(self):
        # x x' is a one-degree Wishart: the quadratic-form moments must
        # agree with kernels i and ii at n = 1, sigma = identity
        case = CASES[3]
        a_mat = np.array(case["A"], dtype=float)
        b_mat = np.array(case["B"], dtype=float)
        inv = trace_invariants(np.eye(3), a_mat, b_mat)
        from eddr.wishart import moment_i_terms, moment_ii_terms

        assert quad_moment_product(a_mat, b_mat) == pytest.approx(moment_i_terms(1, inv))
        assert quad_moment_mean(a_mat) == pytest.approx(np.trace(a_mat))
        # and E[x'Ax x'Bx] equals tr(AWBW)-type pairing plus the product term
        assert moment_ii_terms(1, inv) == pytest.approx(
            2 * np.vdot(a_mat, b_mat) + np.trace(a_mat) * np.trace(b_mat)
        )


class TestQuadraticForms:
    def test_identity_weights(self):
        assert quad_moment_mean(np.eye(5)) == pytest.approx(5.0)
        assert quad_moment_product(np.eye(5), np.eye(5)) == pytest.approx(2 * 5 + 25)

    def test_isserlis_brute_force(self, rng):
        # E[x_i x_j x_k x_l] = d_ij d_kl + d_ik d_jl + d_il d_jk
        p = 3
        a = rng.standard_normal((p, p))
        a = (a + a.T) / 2
        b = rng.standard_normal((p, p))
        b = (b + b.T) / 2
        total = 0.0
        for i in range(p):
            for j in range(p):
                for k in range(p):
                    for l_ in range(p):
                        m4 = (
                            (i == j) * (k == l_)
                            + (i == k) * (j == l_)
                            + (i == l_) * (j == k)
                        )
                        total += a[i, j] * b[k, l_] * m4
        assert quad_moment_product(a, b) == pytest.approx(total, rel=1e-12)

    def test_dimension_mismatch(self):
        from eddr.exceptions import DimensionError

        with pytest.raises(DimensionError):
            quad_moment_product(np.eye(3), np.eye(2))


class TestInvariances:
    def test_symmetry_in_weights(self, rng):
        sigma = random_spd(4, rng)
        a = rng.standard_normal((4, 4))
        a = (a + a.T) / 2
        b = rng.standard_normal((4, 4))
        b = (b + b.T) / 2
        q_ab = MomentQuery(n=9, sigma=sigma, a=a, b=b)
        q_ba = MomentQuery(n=9, sigma=sigma, a=b, b=a)
        m_ab, m_ba = all_moments(q_ab), all_moments(q_ba)
        for name in ("i", "iv", "vi"):
            assert m_ab[name] == pytest.approx(m_ba[name], rel=1e-12)

    def test_orthogonal_similarity_invariance(self, rng):
        sigma = random_spd(4, rng)
        a = rng.standard_normal((4, 4))
        a = (a + a.T) / 2
        b = rng.standard_normal((4, 4))
        b = (b + b.T) / 2
        q = random_orthogonal(4, rng)
        base = all_moments(MomentQuery(n=7, sigma=sigma, a=a, b=b))
        rotated = all_moments(
            MomentQuery(n=7, sigma=q @ sigma @ q.T, a=q @ a @ q.T, b=q @ b @ q.T)
        )
        for name in base:
            assert rotated[name] == pytest.approx(base[name], rel=1e-8)


class TestMomentQuery:
    @pytest.mark.parametrize("n", [2.5, 3.0, np.float64(3), "3", 0, -1],
                             ids=["2.5", "3.0", "float64", "str", "0", "-1"])
    def test_degrees_of_freedom_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError, match="^degrees of freedom must be a positive integer"):
            MomentQuery(n=n, sigma=np.eye(2), a=np.eye(2), b=np.eye(2))

    def test_numpy_integer_degrees_of_freedom_stored_as_int(self):
        q = MomentQuery(n=np.int64(3), sigma=np.eye(2), a=np.eye(2), b=np.eye(2))
        assert type(q.n) is int and q.n == 3

    @pytest.mark.parametrize("name", ["sigma", "a", "b"])
    def test_each_matrix_is_checked_once_by_name(self, name):
        # one tolerance for all three, and the message names the culprit
        mats = dict(sigma=np.eye(3), a=np.eye(3), b=np.eye(3))
        mats[name] = mats[name].copy()
        mats[name][0, 1] += 1e-11
        with pytest.raises(DimensionError, match=f"^{name} is not symmetric within relative 1e-12"):
            MomentQuery(n=5, **mats)
        mats[name][0, 1] = np.nan
        with pytest.raises(ValueError, match=f"^{name} contains non-finite values"):
            MomentQuery(n=5, **mats)


class TestVarianceFormulas:
    def test_var_a1_plugin(self):
        assert var_a1(64, 64, 1.0) == pytest.approx(2.0 / 4096)

    def test_zero_spectrum(self):
        assert var_a1(10, 5, 0.0) == 0.0
        assert var_a2(10, 5, 0.0, 0.0) == 0.0
        assert _quad_form_cov(Dims(8, 8, 4), 0.0, 0.0) == 0.0

    def test_var_delta0_hand_value(self):
        dims = Dims(n1=32, n2=32, p=64)
        assert _quad_form_cov(dims, 5.0, 1.0) == pytest.approx(1.75)  # Var[d'd] at delta_1 = 5

    def test_var_a1_exact_via_oracle(self):
        # Var[tr(W/n)/p] must equal 2 a2/(n p) exactly
        orc = WishartPolyOracle(CASES[2]["L"])
        sigma = orc.sigma()
        p = 2
        tr_s2 = sum(
            sum(sigma[i][k] * sigma[k][j] for k in range(p)) * (i == j)
            for i in range(p)
            for j in range(p)
        )
        a2 = Fraction(tr_s2, p)
        t1 = orc.tr_w_k(1)
        t1sq = pmul(t1, t1)
        for n in (4, 7, 10):
            nf = Fraction(n)
            var_exact = orc.expect(t1sq, n) / (nf * p) ** 2 - (orc.expect(t1, n) / (nf * p)) ** 2
            assert var_exact == 2 * a2 / (nf * p)

    def test_var_a2_formula_is_asymptotic(self):
        # the closed form is a large-n approximation: the exact variance
        # ratio should approach 1 from below as n grows
        orc = WishartPolyOracle(CASES[3]["L"])
        sigma = orc.sigma()
        p = 3

        def imat_mul(x, y):
            return [
                [sum(x[i][k] * y[k][j] for k in range(p)) for j in range(p)]
                for i in range(p)
            ]

        s2 = imat_mul(sigma, sigma)
        s4 = imat_mul(s2, s2)
        a2 = Fraction(sum(s2[i][i] for i in range(p)), p)
        a4 = Fraction(sum(s4[i][i] for i in range(p)), p)
        t1, t2 = orc.tr_w_k(1), orc.tr_w_k(2)
        t2sq = pmul(t2, t2)
        t2t1sq = pmul(t2, pmul(t1, t1))
        t1_4 = pmul(pmul(t1, t1), pmul(t1, t1))
        ratios = []
        for n in (7, 12, 20, 32):
            nf = Fraction(n)
            coeff = nf**2 / (p * (nf + 2) * (nf - 1))
            e_sq = coeff**2 * (
                orc.expect(t2sq, n) / nf**4
                - 2 * orc.expect(t2t1sq, n) / nf**5
                + orc.expect(t1_4, n) / nf**6
            )
            exact = e_sq - a2**2
            printed = Fraction(var_a2(n, p, float(a2), float(a4))).limit_denominator(10**12)
            ratios.append(float(exact) / float(printed))
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] > 0.9
        assert ratios[0] > 0.75

    def test_var_delta_small_mc(self, rng):
        # known-spectrum estimators at a small design, 10% band
        m, p, reps = 16, 8, 20000
        dims = Dims(m, m, p)
        mu = np.sqrt(5.0 / p) * np.ones(p)
        scale = np.sqrt(2.0 / m)
        d0 = np.empty(reps)
        d1 = np.empty(reps)
        for i in range(reps):
            dhat = mu + scale * rng.standard_normal(p)
            y = rng.standard_normal((2 * m - 2, p))
            s = y.T @ y / (2 * m - 2)
            d0[i] = dhat @ dhat
            d1[i] = dhat @ s @ dhat
        delta1 = float(mu @ mu)
        assert np.var(d0, ddof=1) == pytest.approx(
            _quad_form_cov(dims, delta1, 1.0), rel=0.10
        )
        assert np.var(d1, ddof=1) == pytest.approx(
            var_delta1(dims, delta1, delta1, 1.0, 1.0), rel=0.10
        )

    def test_cov_delta01_small_mc(self, rng):
        m, p, reps = 16, 8, 40000
        dims = Dims(m, m, p)
        mu = np.sqrt(5.0 / p) * np.ones(p)
        scale = np.sqrt(2.0 / m)
        d0 = np.empty(reps)
        d1 = np.empty(reps)
        for i in range(reps):
            dhat = mu + scale * rng.standard_normal(p)
            y = rng.standard_normal((2 * m - 2, p))
            s = y.T @ y / (2 * m - 2)
            d0[i] = dhat @ dhat
            d1[i] = dhat @ s @ dhat
        emp = float(np.cov(d0, d1)[0, 1])
        assert emp == pytest.approx(_quad_form_cov(dims, float(mu @ mu), 1.0), rel=0.15)


class TestSampler:
    def test_draws_are_symmetric_psd(self, rng):
        sigma = random_spd(4, rng)
        for _ in range(20):
            w = sample_wishart(6, sigma, rng)
            assert np.allclose(w, w.T)
            assert np.linalg.eigvalsh(w).min() > -1e-10

    def test_mean_trace(self, rng):
        sigma = random_spd(3, rng)
        n, reps = 8, 10000
        vals = np.array([np.trace(sample_wishart(n, sigma, rng)) for _ in range(reps)])
        ratio = vals / (n * np.trace(sigma))
        se = ratio.std(ddof=1) / np.sqrt(reps)
        assert abs(ratio.mean() - 1.0) < 3 * se

    def test_scalar_variance(self, rng):
        n, reps = 7, 60000
        vals = np.array([sample_wishart(n, np.eye(1), rng)[0, 0] for _ in range(reps)])
        assert vals.var(ddof=1) == pytest.approx(2.0 * n, rel=0.05)

    def test_low_rank_path(self, rng):
        # n < p uses the outer-product construction
        sigma = random_spd(6, rng)
        w = sample_wishart(3, sigma, rng)
        assert w.shape == (6, 6)
        eig = np.linalg.eigvalsh(w)
        assert (eig > 1e-8).sum() == 3  # rank n

    def test_both_paths_have_correct_mean(self, rng):
        sigma = random_spd(3, rng)
        reps = 6000
        low = np.zeros((3, 3))
        high = np.zeros((3, 3))
        for _ in range(reps):
            low += sample_wishart(2, sigma, rng)
            high += sample_wishart(5, sigma, rng)
        assert np.allclose(low / reps, 2 * sigma, atol=0.2)
        assert np.allclose(high / reps, 5 * sigma, atol=0.3)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sample_wishart(0, np.eye(2), np.random.default_rng(0))


class TestMcSuiteSmall:
    def test_small_mc_suite_passes(self):
        rows = mc_moment_suite(p=2, n=6, draws=60000, seed=7)
        for row in rows:
            assert row.passed, row
