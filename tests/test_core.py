"""Summaries, scores, the decision rule, and scalar/matrix primitives."""

import tracemalloc
import warnings

import numpy as np
import pytest

from eddr.core import (
    PI1,
    PI2,
    Dims,
    TwoSampleSummary,
    _dual_gram,
    cholesky,
    classify,
    discriminant_score,
    pooled_summary,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)
from eddr.exceptions import DimensionError, NotPositiveDefiniteError
from eddr.threads import one_blas_thread

from conftest import random_orthogonal, random_spd
from oracles import pxp_pooled_covariance, pxp_power_stats

STATS = ("t1", "t2", "t3", "t4", "q0", "q1", "q2", "q3")
from_cov = TwoSampleSummary.from_covariance

# high-precision references (30-digit arithmetic)
PHI_M125 = 0.105649773666855257688772764026
Z_975 = 1.95996398454005423552459443052


class TestPooledSummary:
    def test_identical_rows_give_zero_scatter(self):
        s = pooled_summary([[1.0, 2.0], [1.0, 2.0]], [[3.0, -1.0], [3.0, -1.0]])
        assert (s.t1, s.t2, s.t3, s.t4, s.q1, s.q2, s.q3) == (0.0,) * 7
        assert s.q0 == pytest.approx(13.0)

    def test_scalar_hand_example(self):
        # groups {0, 2} and {1, 3}: means 1 and 2, pooled scatter (2+2)/2
        s = pooled_summary([[0.0], [2.0]], [[1.0], [3.0]])
        assert s.xbar1[0] == pytest.approx(1.0)
        assert s.xbar2[0] == pytest.approx(2.0)
        assert s.t1 == pytest.approx(2.0)
        assert s.t4 == pytest.approx(16.0)
        assert s.q3 == pytest.approx(8.0)  # d = -1, S = 2
        assert s.n == 2

    def test_column_permutation_equivariance(self, rng):
        x1 = rng.standard_normal((6, 4))
        x2 = rng.standard_normal((5, 4))
        perm = [2, 0, 3, 1]
        s = pooled_summary(x1, x2)
        sp = pooled_summary(x1[:, perm], x2[:, perm])
        assert np.allclose(sp.xbar1, s.xbar1[perm])
        for name in STATS:
            assert getattr(sp, name) == pytest.approx(getattr(s, name), rel=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            pooled_summary(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))

    def test_too_few_observations(self):
        with pytest.raises(DimensionError, match="at least 2 observations"):
            pooled_summary(np.zeros((1, 3)), np.zeros((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            pooled_summary(np.array([[1.0, np.inf], [0.0, 1.0]]), np.zeros((2, 2)))

    @pytest.mark.parametrize("x1, x2, error", [
        (np.zeros(3), np.zeros((2, 3)), DimensionError),           # 1-d
        (np.zeros((2, 3, 1)), np.zeros((2, 3)), DimensionError),   # 3-d
        (np.zeros((2, 3)), np.zeros((1, 3)), DimensionError),      # one row
        (np.zeros((2, 0)), np.zeros((2, 0)), DimensionError),      # no column
        (np.zeros((2, 3)), np.zeros((2, 4)), DimensionError),      # p differs
        (np.zeros((2, 2)), [[0.0, np.nan], [1.0, 1.0]], ValueError),
        (np.zeros((2, 2)), [[0.0, 1.0], [-np.inf, 1.0]], ValueError),
    ], ids=["1-d", "3-d", "one-row", "no-column", "p-differs", "nan", "inf"])
    def test_input_checked_for_either_group(self, x1, x2, error):
        # each check runs on both groups, whichever holds the bad input
        for a, b in ((x1, x2), (x2, x1)):
            with pytest.raises(error):
                pooled_summary(a, b)

    @pytest.mark.parametrize("helper", [False, True])
    def test_first_group_error_comes_first(self, helper):
        # group 1's checks, then group 2's, then the dimension agreement
        nan = np.array([[0.0, np.nan], [1.0, 1.0]])
        cases = [
            (nan, np.zeros(2), ValueError, "non-finite"),
            (np.zeros((1, 2)), nan, DimensionError, "at least 2 observations"),
            (np.zeros((2, 2)), np.zeros((2, 3, 1)), DimensionError, "2-d array"),
            (np.zeros((2, 3)), nan, ValueError, "non-finite"),
        ]
        with one_blas_thread(helper):
            for x1, x2, error, match in cases:
                with pytest.raises(error, match=match):
                    pooled_summary(x1, x2)


class TestSummaryValidation:
    def test_asymmetric_covariance_rejected(self):
        s = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(DimensionError):
            from_cov(np.zeros(2), np.zeros(2), s, 3, 3)

    def test_indefinite_covariance_rejected(self):
        s = np.array([[1.0, 0.0], [0.0, -0.5]])
        with pytest.raises(NotPositiveDefiniteError):
            from_cov(np.zeros(2), np.zeros(2), s, 3, 3)

    def test_zero_matrix_accepted(self):
        s = from_cov(np.zeros(2), np.zeros(2), np.zeros((2, 2)), 3, 3)
        assert s.n == 4

    def test_singular_psd_accepted(self, rng):
        v = rng.standard_normal(5)
        s = from_cov(np.zeros(5), np.zeros(5), np.outer(v, v), 3, 3)
        assert s.p == 5

    def test_covariance_shape_checked(self):
        with pytest.raises(DimensionError):
            from_cov(np.zeros(3), np.zeros(3), np.eye(2), 3, 3)

    def test_summary_is_its_dims(self, rng):
        s = pooled_summary(rng.standard_normal((5, 3)), rng.standard_normal((4, 3)))
        assert isinstance(s, Dims)
        assert (s.n1, s.n2, s.p, s.n, s.n_total) == (5, 4, 3, 7, 9)

    @pytest.mark.parametrize("n1, n2", [(3, 1), (2, 1), (1, 3)])
    def test_group_below_two_rejected_when_built(self, n1, n2):
        with pytest.raises(DimensionError, match="n1, n2 >= 2"):
            from_cov(np.ones(2), np.zeros(2), np.eye(2), n1, n2)

    @pytest.mark.parametrize("sizes", [(2.5, 3, 2), (3, 3, 8.5), (3.0, 3, 2), ("3", 3, 2)])
    def test_sizes_must_be_integers(self, sizes):
        with pytest.raises(DimensionError, match="must be an integer"):
            Dims(*sizes)

    def test_summary_sizes_must_be_integers(self):
        # a fractional n1 once gave a summary with n = 3.5
        with pytest.raises(DimensionError, match="n1 must be an integer"):
            from_cov(np.ones(2), np.zeros(2), np.eye(2), 2.5, 3)

    def test_numpy_integer_sizes_accepted(self):
        dims = Dims(np.int64(3), np.int32(4), np.uint8(5))
        assert (dims.n1, dims.n2, dims.p, dims.n) == (3, 4, 5, 5)
        assert all(type(v) is int for v in (dims.n1, dims.n2, dims.p))
        assert dims == Dims(3, 4, 5)

    def test_summaries_compare_by_identity(self, rng):
        x1, x2 = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
        a, b = pooled_summary(x1, x2), pooled_summary(x1, x2)
        assert a == a and a != b
        assert a != Dims(3, 3, 2) and Dims(3, 3, 2) != a
        assert len({a, b, a}) == 2

    def test_means_must_have_length_p(self):
        with pytest.raises(DimensionError, match="length p"):
            TwoSampleSummary(3, 3, 3, np.ones(2), np.zeros(2), *(0.0,) * 6, np.eye(2))

    @pytest.mark.parametrize("where, value", [("s", np.nan), ("s", np.inf), ("xbar1", np.nan)])
    def test_nonfinite_input_rejected_first(self, where, value):
        args = {"xbar1": np.zeros(3), "xbar2": np.zeros(3), "s": np.eye(3)}
        if where == "s":
            args["s"][0, 1] = args["s"][1, 0] = value
        else:
            args["xbar1"][1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite values"):
                from_cov(args["xbar1"], args["xbar2"], args["s"], 3, 3)

    @pytest.mark.parametrize("k, accepted", [(1e-10, True), (4e-10, False)])
    def test_psd_tolerance_boundary(self, rng, k, accepted):
        # smallest eigenvalue -k * tr/p, with the trace taken over all eigenvalues
        p, rest = 6, np.arange(1.0, 6.0)
        lam = -k * rest.sum() / (p + k)
        q = random_orthogonal(p, rng)
        s = q * np.append(rest, lam) @ q.T
        s = (s + s.T) / 2
        if accepted:
            assert from_cov(np.zeros(p), np.zeros(p), s, 4, 4).p == p
        else:
            with pytest.raises(NotPositiveDefiniteError):
                from_cov(np.zeros(p), np.zeros(p), s, 4, 4)


class TestPowerStatistics:
    """The summary's power statistics against the p x p reference formulas."""

    @pytest.mark.parametrize("p", [9, 21, 40])  # N = 21: p < N, p = N, p > N
    def test_match_pxp_reference(self, rng, p):
        x1 = rng.standard_normal((12, p)) + 0.7
        x2 = 1.5 * rng.standard_normal((9, p))
        got = pooled_summary(x1, x2)
        want = pxp_power_stats(x1, x2)
        for name in STATS:
            assert getattr(got, name) == pytest.approx(want[name], rel=1e-12, abs=0.0), name

    @pytest.mark.parametrize("p", [9, 40])
    def test_from_covariance_matches_data_path(self, rng, p):
        x1 = rng.standard_normal((12, p)) + 0.7
        x2 = rng.standard_normal((9, p))
        got = pooled_summary(x1, x2)
        want = from_cov(got.xbar1, got.xbar2, pxp_pooled_covariance(x1, x2), 12, 9)
        for name in STATS:
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12), name

    @pytest.mark.parametrize("p", [6, 30])
    @pytest.mark.parametrize("scale", [1.7, 1e-6, 3e5])
    def test_scale_equivariance(self, rng, p, scale):
        x1 = rng.standard_normal((8, p)) + 0.5
        x2 = rng.standard_normal((7, p))
        base, scaled = pooled_summary(x1, x2), pooled_summary(scale * x1, scale * x2)
        for k in range(1, 5):
            got, want = getattr(scaled, f"t{k}"), scale ** (2 * k) * getattr(base, f"t{k}")
            assert got == pytest.approx(want, rel=1e-12)
        for k in range(4):
            got, want = getattr(scaled, f"q{k}"), scale ** (2 * k + 2) * getattr(base, f"q{k}")
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("p", [9, 40])  # N = 21
    def test_high_traces_from_the_kept_matrix(self, rng, p):
        x1 = rng.standard_normal((12, p)) + 0.7
        x2 = rng.standard_normal((9, p))
        s = pooled_summary(x1, x2)
        a = s._power_base
        assert a.shape == (min(p, 21),) * 2
        a2 = a @ a.T
        assert (s.t3, s.t4) == (np.vdot(a2, a), np.vdot(a2, a2))

    def test_from_covariance_keeps_its_own_copy(self, rng):
        s = np.asfortranarray(random_spd(7, rng))
        summary = from_cov(np.ones(7), np.zeros(7), s, 5, 6)
        a2 = s @ s.T
        want = (np.vdot(a2, s), np.vdot(a2, a2))
        s *= 2.0
        assert (summary.t3, summary.t4) == want

    def test_no_pxp_matrix_when_p_exceeds_n(self, rng):
        # a p x p float matrix at p = 2000 alone takes 32 MB
        x1 = rng.standard_normal((10, 2000))
        x2 = rng.standard_normal((10, 2000))
        tracemalloc.start()
        try:
            pooled_summary(x1, x2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize("p", [3, 40])  # N = 9: primal and dual statistics
    def test_stacked_matrix_centred_in_place(self, rng, p):
        x1, x2 = rng.standard_normal((4, p)), rng.standard_normal((5, p))
        want = pooled_summary(x1, x2)
        x = np.vstack([x1, x2])
        got = pooled_summary(x[:4], x[4:], _stacked=x)
        for name in ("xbar1", "xbar2") + STATS:
            assert np.asarray(getattr(got, name)).tobytes() == np.asarray(getattr(want, name)).tobytes()
        c = np.vstack([x1 - want.xbar1, x2 - want.xbar2]) / np.sqrt(7)
        assert x.tobytes() == c.tobytes()  # overwritten, not copied


class TestDualGram:
    """``_dual_gram``'s blocks, shared with the helper thread or not."""

    @pytest.mark.parametrize("helper", [False, True])
    @pytest.mark.parametrize("n", [5, 200, 257, 398, 512])
    def test_symmetric_and_equal_to_the_product(self, rng, n, helper):
        c, d = rng.standard_normal((n, 540)), rng.standard_normal(540)
        with one_blas_thread(helper):
            g, w = _dual_gram(c, d)
            want_w = c @ d
        assert (g == g.T).all()
        want = c @ c.T
        assert np.abs(g - want).max() <= 1e-13 * np.abs(want).max()
        assert w.tobytes() == want_w.tobytes()

    @pytest.mark.parametrize("helper", [False, True])
    @pytest.mark.parametrize("n", [4, 5, 200, 256, 300, 398, 512, 800])
    def test_three_product_split(self, rng, n, helper):
        c, d = rng.standard_normal((n, 300)), rng.standard_normal(300)
        h = n // 2
        with one_blas_thread(helper):
            g, _ = _dual_gram(c, d)
            want = np.empty((n, n))
            np.matmul(c[:h], c[h:].T, out=want[:h, h:])
            np.matmul(c[:h], c[:h].T, out=want[:h, :h])
            np.matmul(c[h:], c[h:].T, out=want[h:, h:])
            want[h:, :h] = want[:h, h:].T
        assert g.tobytes() == want.tobytes()


class TestScores:
    def test_discriminant_balanced_midpoint(self):
        s = from_cov(np.array([1.0, 0.0]), np.array([-1.0, 0.0]), np.eye(2), 5, 5)
        assert discriminant_score([0.0, 3.7], s) == pytest.approx(0.0, abs=1e-12)

    def test_discriminant_unbalanced_hand_example(self):
        s = from_cov(np.array([1.0, 0.0]), np.array([-1.0, 0.0]), np.eye(2), 4, 2)
        # 1 - 1 - (2/8) * tr(I_2) = -0.5
        assert discriminant_score([0.0, 0.0], s) == pytest.approx(-0.5)

    def test_translation_invariance(self, rng):
        x = rng.standard_normal(3)
        shift = rng.standard_normal(3)
        cov = random_spd(3, rng)
        s = from_cov(rng.standard_normal(3), rng.standard_normal(3), cov, 4, 7)
        s2 = from_cov(s.xbar1 + shift, s.xbar2 + shift, cov, 4, 7)
        assert discriminant_score(x + shift, s2) == pytest.approx(
            discriminant_score(x, s), rel=1e-9
        )

    def test_rotation_invariance(self, rng):
        q = random_orthogonal(5, rng)
        x = rng.standard_normal(5)
        cov = random_spd(5, rng)
        s = from_cov(rng.standard_normal(5), rng.standard_normal(5), cov, 6, 9)
        s2 = from_cov(q @ s.xbar1, q @ s.xbar2, q @ cov @ q.T, 6, 9)
        assert discriminant_score(q @ x, s2) == pytest.approx(
            discriminant_score(x, s), rel=1e-9
        )

    def test_balanced_equals_oracle_at_sample_means(self, rng):
        cov = random_spd(3, rng)
        s = from_cov(rng.standard_normal(3), rng.standard_normal(3), cov, 6, 6)
        x = rng.standard_normal(3)
        d2, d1 = x - s.xbar2, x - s.xbar1
        assert discriminant_score(x, s) == pytest.approx(d2 @ d2 - d1 @ d1, rel=1e-12)


class TestClassify:
    def setup_method(self):
        self.s = from_cov(np.array([1.0]), np.array([-1.0]), np.eye(1), 5, 5)

    def test_boundary_goes_to_group_two(self):
        # score at the midpoint is 0; with c = 0 the tie goes to group 2
        assert classify([0.0], self.s, 0.0) == PI2

    def test_clear_group_one(self):
        # score(1.5) = |1.5+1|^2 - |1.5-1|^2 = 6 > 2c
        assert classify([1.5], self.s, 1.0) == PI1

    def test_threshold_is_doubled(self):
        # score(x) = 4x; score = 1.9 at x = 0.475, below the 2c = 2 threshold
        assert discriminant_score([0.475], self.s) == pytest.approx(1.9)
        assert classify([0.475], self.s, 1.0) == PI2
        assert classify([0.525], self.s, 1.0) == PI1

    def test_monotone_in_cutoff(self, rng):
        xs = rng.standard_normal((20, 1))
        for x in xs:
            labels = [classify(x, self.s, c) for c in np.linspace(-3, 3, 13)]
            # raising c can only move points from group 1 to group 2
            assert sorted(labels) == labels

    def test_nonfinite_cutoff_rejected(self):
        with pytest.raises(ValueError):
            classify([0.0], self.s, np.nan)


class TestNormalCdf:
    def test_at_zero(self):
        assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry(self, rng):
        for x in rng.standard_normal(50) * 3:
            assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)

    def test_derived_value(self):
        assert std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)
        assert std_normal_cdf(-1.25) == pytest.approx(PHI_M125, abs=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            std_normal_cdf(float("inf"))

    def test_matches_scipy_reference(self):
        from scipy.special import ndtr

        x = np.linspace(-37.0, 8.0, 9001)
        got = np.array([std_normal_cdf(v) for v in x])
        assert np.abs(got / ndtr(x) - 1.0).max() <= 1e-12

    def test_pdf_matches_cdf_derivative(self):
        h = 1e-6
        for x in (-2.0, -0.3, 0.0, 1.1, 2.5):
            fd = (std_normal_cdf(x + h) - std_normal_cdf(x - h)) / (2 * h)
            assert std_normal_pdf(x) == pytest.approx(fd, rel=1e-8)


class TestNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_round_trip(self):
        for u in np.arange(0.01, 1.0, 0.01):
            assert std_normal_cdf(std_normal_quantile(u)) == pytest.approx(u, abs=1e-10)

    def test_derived_value(self):
        assert std_normal_quantile(0.975) == pytest.approx(Z_975, abs=1e-6)

    def test_accuracy(self):
        for u in (1e-6, 0.001, 0.3, 0.999, 1 - 1e-6):
            z = std_normal_quantile(u)
            assert abs(std_normal_cdf(z) - u) <= 1e-12

    def test_matches_scipy_reference_within_8_ulp(self):
        from scipy.special import ndtri

        u = np.concatenate([
            np.logspace(-300, -1, 3000),
            np.linspace(0.1, 0.9, 3001),
            1.0 - np.logspace(-1, -16, 3000),
        ])
        want = ndtri(u)
        got = np.array([std_normal_quantile(v) for v in u])
        ulps = np.abs(got - want) / np.spacing(np.abs(want))
        assert ulps.max() <= 8

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.1, 1.1])
    def test_domain(self, u):
        with pytest.raises(ValueError):
            std_normal_quantile(u)


class TestFactorizations:
    def test_cholesky_identity(self):
        assert np.allclose(cholesky(np.eye(3)), np.eye(3))

    def test_cholesky_diagonal(self):
        assert np.allclose(cholesky(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_cholesky_reconstruction(self, rng):
        a = random_spd(8, rng)
        l_factor = cholesky(a)
        assert np.allclose(l_factor @ l_factor.T, a, rtol=1e-10, atol=1e-12)
        assert np.allclose(np.triu(l_factor, 1), 0.0)

    def test_cholesky_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("build", [cholesky], ids=["cholesky"])
def test_nonfinite_matrix_rejected_first(build, value):
    s = np.eye(3)
    s[0, 1] = s[1, 0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="contains non-finite values"):
            build(s)

