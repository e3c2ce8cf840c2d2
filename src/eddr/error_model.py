"""Limiting behaviour of the conditional misclassification error.

Write ``U`` for the centred cross term between the mean-difference
estimate and the true group-1 mean (plus the trace-bias correction) and
``V`` for the true-covariance quadratic form of the mean difference.
Conditional on the training data the error of the rule with half-scale
cut-off ``c`` is exactly ``Phi((U + c)/sqrt(V))``; as (n, p) grow
together, (U, V) concentrate at

    u0 = -Delta_0 / 2,
    v0 = Delta_1 + N p a_2 / (n1 n2),

so the expected error converges to ``Phi((u0 + c)/sqrt(v0))``.  This
module assembles the plug-in versions of (u0, v0), the 2x2 covariance of
(U, V) built from the h_u / h_v / h_uv moment functions, and the
delta-method normal law of the conditional error.

A note on scaling: ``theta`` below is a *finite-sample* covariance — its
entries already carry the 1/n decay.  Consequently ``tau2 = grad' theta
grad`` is directly a variance on the error scale, with no additional n
factor applied anywhere.

The law takes ``theta`` as a matrix; two are provided, each built from
one :class:`~eddr.estimators.Estimates` (what
:func:`~eddr.estimators.estimate_all` returns) and the sample sizes:

* :func:`statistic_covariance` — the covariance of the conditional
  statistics (U, V) themselves, from :func:`h_u`, :func:`h_v`,
  :func:`h_uv`.  It gives the law of the conditional error at a *fixed*
  cut-off, which the empirical error distribution matches when the
  cut-off is held at its population value.
* :func:`estimator_covariance` — the covariance of the plug-in pair
  (u0_hat, v0_hat) to first order.  Its Var[v0_hat] entry is exact; the
  other two leave out the noise of a1_hat, a term of order 1/n relative
  to each (see that function).  When the cut-off is itself estimated
  from the training data, this larger matrix drives the spread of the
  realized conditional error; the confidence calibration uses it because
  it reproduces the reference simulation tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dims, std_normal_cdf, std_normal_pdf
from .estimators import Estimates
from .exceptions import CalibrationInfeasibleError
from .wishart import _quad_form_cov, var_delta1

@dataclass(frozen=True)
class LimitParams:
    """Plug-in limit of the conditional-error location/scale pair."""

    u0: float
    v0: float

    def __post_init__(self):
        if not (math.isfinite(self.u0) and math.isfinite(self.v0)):
            raise CalibrationInfeasibleError("limit parameters are not finite")
        if self.v0 <= 0.0:
            raise CalibrationInfeasibleError(
                f"estimated scale parameter v0 = {self.v0:g} is not positive"
            )


@dataclass(frozen=True)
class AsymptoticLaw:
    """Normal law of the conditional error at a given cut-off.

    ``theta`` is the 2x2 covariance of the (U, V) statistics, ``grad`` the
    gradient of the error map at (u0, v0) and ``tau2 = grad' theta grad``
    the variance of the conditional error.
    """

    e0: float
    tau2: float
    theta: np.ndarray
    grad: np.ndarray


def limit_values(d0: float, d1: float, a2: float, dims: Dims) -> tuple[float, float]:
    """Plug-in limits u0 = -d0/2 and v0 = d1 + N p a2/(n1 n2), unvalidated.

    ``LimitParams(*limit_values(...))`` rejects v0 <= 0.
    """
    u0 = -d0 / 2.0
    v0 = d1 + dims.n_total * dims.p * a2 / (dims.n1 * dims.n2)
    return float(u0), float(v0)


def expected_error(lp: LimitParams, c: float) -> float:
    """Limiting expected error Phi((u0 + c)/sqrt(v0)) at half-scale cut-off c."""
    return std_normal_cdf((lp.u0 + c) / math.sqrt(lp.v0))


def h_u(delta1: float, a2: float, dims: Dims) -> float:
    """Variance of the centred U statistic."""
    n1, n2, p = dims.n1, dims.n2, dims.p
    return delta1 / n2 + (n1**2 + n2**2) * p * a2 / (2 * n1**2 * n2**2)


def h_v(delta3: float, a4: float, dims: Dims) -> float:
    """Variance of the V statistic."""
    return _quad_form_cov(dims, delta3, a4)


def h_uv(delta2: float, a3: float, dims: Dims) -> float:
    """Covariance of the U and V statistics; the second term vanishes when n1 = n2."""
    n1, n2, p = dims.n1, dims.n2, dims.p
    return -2 * delta2 / n2 - dims.n_total * (n1 - n2) * p * a3 / (n1 * n2) ** 2


def statistic_covariance(est: Estimates, dims: Dims) -> np.ndarray:
    """Covariance of the conditional statistics (U, V) from the h_* moments."""
    cross = h_uv(est.d2, est.a3, dims)
    return np.array(
        [[h_u(est.d1, est.a2, dims), cross], [cross, h_v(est.d3, est.a4, dims)]]
    )


def estimator_covariance(est: Estimates, dims: Dims) -> np.ndarray:
    """Covariance of the plug-in location/scale pair (u0_hat, v0_hat), to first order.

    Only Var[v0_hat] is exact: v0_hat equals q1, whose variance is
    :func:`~eddr.wishart.var_delta1`.  The other two entries treat
    u0_hat = -(q0 - kappa p a1_hat)/2, with kappa = N/(n1 n2), as if a1_hat
    were the constant a1.  Var[u0_hat] is a quarter of Var[q0] and leaves
    out kappa^2 p a2 / (2n); the cross term is minus half Cov(q0, q1) and
    leaves out (kappa Delta_2 + kappa^2 p a3) / n.  Both are of order 1/n
    relative to the entry.  With Sigma = LL', L = [[1, 0], [1, 2]] and
    delta = (1, 3), at (n1, n2) = (5, 4), (6, 6) and (20, 20), the exact
    variance is 1.0154, 1.0082 and 1.0007 times this one, and the exact
    cross term 0.921, 0.946 and 0.987 times this one.
    """
    vu = _quad_form_cov(dims, est.d1, est.a2) / 4.0
    vv = var_delta1(dims, est.d1, est.d3, est.a2, est.a4)
    cross = -_quad_form_cov(dims, est.d2, est.a3) / 2.0
    return np.array([[vu, cross], [cross, vv]])


def asymptotic_law(lp: LimitParams, theta: np.ndarray, c: float) -> AsymptoticLaw:
    """Normal law of the conditional error at cut-off ``c``.

    ``theta`` is one of the two covariance matrices described above.

    Raises :class:`CalibrationInfeasibleError` when the plug-in covariance
    is indefinite enough to make tau2 negative, when tau2 is not finite,
    when v0 is too small for the gradient, or when e0 degenerates to 0
    or 1 in floating point.
    """
    sv = math.sqrt(lp.v0)
    w = (lp.u0 + c) / sv
    e0 = std_normal_cdf(w)
    if not 0.0 < e0 < 1.0:
        raise CalibrationInfeasibleError(f"limiting error degenerates to {e0:g}")
    pdf = std_normal_pdf(w)
    v_scale = 2.0 * lp.v0 * sv
    if v_scale == 0.0:
        raise CalibrationInfeasibleError(f"v0 = {lp.v0:g} underflows the error law's gradient")
    grad = np.array([pdf / sv, -(lp.u0 + c) / v_scale * pdf])
    tau2 = float(grad @ theta @ grad)
    if not 0.0 <= tau2 < math.inf:
        raise CalibrationInfeasibleError(
            f"plug-in variance of the conditional error is negative or not finite ({tau2:g})"
        )
    return AsymptoticLaw(e0=e0, tau2=tau2, theta=theta, grad=grad)
