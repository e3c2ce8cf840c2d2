"""Scale law: multiplying the data by s scales every quantity by s to its degree.

a_k has degree 2k, Delta_k degree 2k + 2, the entries of the estimator
covariance degrees 4, 6 and 8, tau2 degree 0 and a cut-off degree 2, the
degree of the discriminant score.  The scale factors are powers of two, so
rescaling is exact in binary floating point and a mismatch is an error of
degree, not of rounding.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eddr.calibration import M2_ANCHORS, CutoffRequest, calibrate
from eddr.core import pooled_summary
from eddr.error_model import estimator_covariance
from eddr.estimators import estimate_all
from eddr.exceptions import CalibrationInfeasibleError

DETERMINISTIC = settings(derandomize=True, deadline=None, max_examples=60)
REL = 1e-12

# n = n1 + n2 - 2 >= 7 for a4; p runs past N so both Gram sides are drawn
designs = st.tuples(
    st.integers(0, 2**32 - 1), st.integers(5, 12), st.integers(5, 12), st.integers(2, 30)
)
scales = st.one_of(st.integers(-30, -1), st.integers(1, 30)).map(lambda k: 2.0**k)


def summary_of(design, s):
    seed, n1, n2, p = design
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal((n1, p)) + np.sqrt(5.0 / p)
    x2 = rng.standard_normal((n2, p))
    return pooled_summary(s * x1, s * x2)


def estimates(design, s):
    summary = summary_of(design, s)
    return summary, *estimate_all(summary)


def calibrated(design, s, request):
    return calibrate(summary_of(design, s), request)


def feasible(design, request):
    try:
        return calibrated(design, 1.0, request)
    except CalibrationInfeasibleError:
        assume(False)


@DETERMINISTIC
@given(designs, scales)
def test_estimates_scale_to_their_degree(design, s):
    _, t1, d1 = estimates(design, 1.0)
    _, ts, ds = estimates(design, s)
    for k, (a, b) in enumerate(zip((t1.a1, t1.a2, t1.a3, t1.a4), (ts.a1, ts.a2, ts.a3, ts.a4)), 1):
        assert b == pytest.approx(s ** (2 * k) * a, rel=REL)
    for k, (a, b) in enumerate(zip((d1.d0, d1.d1, d1.d2, d1.d3), (ds.d0, ds.d1, ds.d2, ds.d3))):
        assert b == pytest.approx(s ** (2 * k + 2) * a, rel=REL)


@DETERMINISTIC
@given(designs, scales)
def test_estimator_covariance_scales_by_s4_s6_s8(design, s):
    dims, t1, d1 = estimates(design, 1.0)
    _, ts, ds = estimates(design, s)
    theta1 = estimator_covariance(d1, t1, dims)
    thetas = estimator_covariance(ds, ts, dims)
    degrees = np.array([[4, 6], [6, 8]])
    assert np.allclose(thetas, s**degrees * theta1, rtol=REL, atol=0.0)


@DETERMINISTIC
@given(designs, scales)
def test_tau2_at_the_calibrated_cutoff_is_scale_free(design, s):
    request = CutoffRequest.m2_logit(0.2, 0.1)
    base = feasible(design, request)
    assert calibrated(design, s, request).law.tau2 == pytest.approx(base.law.tau2, rel=REL)


@DETERMINISTIC
@given(designs, scales)
def test_m1_cutoff_scales_by_s2(design, s):
    request = CutoffRequest.m1(0.1)
    base = feasible(design, request)
    assert calibrated(design, s, request).c == pytest.approx(s**2 * base.c, rel=REL)


@pytest.mark.parametrize("anchor", M2_ANCHORS)
@DETERMINISTIC
@given(designs, scales)
def test_m2_cutoff_scales_by_s2(anchor, design, s):
    request = CutoffRequest.m2_logit(0.2, 0.1, anchor=anchor)
    base = feasible(design, request)
    scaled = calibrated(design, s, request)
    assert scaled.c == pytest.approx(s**2 * base.c, rel=REL)
