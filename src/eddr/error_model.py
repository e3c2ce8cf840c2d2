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

The law takes ``theta`` as a matrix; two are provided:

* :func:`statistic_covariance` — the covariance of the conditional
  statistics (U, V) themselves, from :func:`h_u`, :func:`h_v`,
  :func:`h_uv`.  It gives the law of the conditional error at a *fixed*
  cut-off, which the empirical error distribution matches when the
  cut-off is held at its population value.
* :func:`estimator_covariance` — the covariance of the plug-in pair
  (u0_hat, v0_hat), from the exact second moments of the re-centred
  estimators.  When the cut-off is itself estimated from the training
  data, this larger matrix drives the spread of the realized conditional
  error; the confidence calibration uses it because it reproduces the
  reference simulation tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dims, std_normal_cdf, std_normal_pdf
from .estimators import DeltaEstimates, TraceEstimates
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


def statistic_covariance(d: DeltaEstimates, t: TraceEstimates, dims: Dims) -> np.ndarray:
    """Covariance of the conditional statistics (U, V) from the h_* moments."""
    cross = h_uv(d.d2, t.a3, dims)
    return np.array(
        [[h_u(d.d1, t.a2, dims), cross], [cross, h_v(d.d3, t.a4, dims)]]
    )


def estimator_covariance(d: DeltaEstimates, t: TraceEstimates, dims: Dims) -> np.ndarray:
    """Covariance of the plug-in location/scale pair (u0_hat, v0_hat).

    Built from the exact second moments of the re-centred estimators:
    Var[u0_hat] is a quarter of the squared-distance estimator's
    variance, and the cross term is minus half their covariance.
    """
    vu = _quad_form_cov(dims, d.d1, t.a2) / 4.0
    vv = var_delta1(dims, d.d1, d.d3, t.a2, t.a4)
    cross = -_quad_form_cov(dims, d.d2, t.a3) / 2.0
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
