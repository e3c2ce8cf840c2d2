"""Cut-off selection for the discriminant rule.

Two policies are supported.  The expected-error policy ("M1") picks the
half-scale cut-off that makes the limiting expected error equal a target
alpha; algebraically

    c1 = sqrt(v0) * z_alpha - u0,

which satisfies ``expected_error(lp, c1) == alpha`` exactly.  The
confidence policy ("M2") instead bounds the *conditional* error by ``eu``
with probability ``1-beta``, which leads to an adjusted percentile
``gamma`` and the cut-off ``(-u0 + sqrt(v0) * z_gamma) / a1``.  The
normal-scale gamma can leave (0, 1); the logit-scale variant cannot, and
is also the documented fallback when that happens.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .core import Dims, std_normal_quantile
from .error_model import (
    DEFAULT_LOGIT_VARIANCE,
    AsymptoticLaw,
    LimitParams,
    asymptotic_law,
    estimator_covariance,
    expected_error,
    limit_params,
)
from .exceptions import CalibrationInfeasibleError

#: Where the error law is evaluated before an M2 cut-off is extracted.
#: "eu" anchors it at the cut-off whose limiting error equals the target
#: upper bound; "fixed-point" re-evaluates the law at the candidate
#: cut-off until it is self-consistent.
M2_ANCHORS = ("eu", "fixed-point")
DEFAULT_M2_ANCHOR = "eu"

#: The fixed-point anchor stops once the cut-off moves by at most
#: FIXED_POINT_TOL * (1 + |c|), or after FIXED_POINT_MAX_ITER updates.
FIXED_POINT_MAX_ITER = 100
FIXED_POINT_TOL = 1e-10


class CutoffVariant(enum.Enum):
    M1 = "m1"
    M2_NORMAL = "m2-normal"
    M2_LOGIT = "m2-logit"


@dataclass(frozen=True)
class CutoffRequest:
    """Calibration policy plus its parameters.

    Exactly the fields of the chosen variant must be set: ``alpha`` for
    M1, ``eu`` and ``beta`` for either M2 variant.
    """

    variant: CutoffVariant
    alpha: float | None = None
    eu: float | None = None
    beta: float | None = None

    def __post_init__(self):
        def _in_unit(name, value):
            if value is None or not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly in (0,1), got {value}")

        if self.variant == CutoffVariant.M1:
            _in_unit("alpha", self.alpha)
            if self.eu is not None or self.beta is not None:
                raise ValueError("eu/beta are not part of an M1 request")
        else:
            _in_unit("eu", self.eu)
            _in_unit("beta", self.beta)
            if self.alpha is not None:
                raise ValueError("alpha is not part of an M2 request")

    @classmethod
    def m1(cls, alpha: float) -> "CutoffRequest":
        return cls(variant=CutoffVariant.M1, alpha=alpha)

    @classmethod
    def m2_normal(cls, eu: float, beta: float) -> "CutoffRequest":
        return cls(variant=CutoffVariant.M2_NORMAL, eu=eu, beta=beta)

    @classmethod
    def m2_logit(cls, eu: float, beta: float) -> "CutoffRequest":
        return cls(variant=CutoffVariant.M2_LOGIT, eu=eu, beta=beta)


@dataclass(frozen=True)
class CutoffResult:
    """Half-scale cut-off plus how it was obtained.

    ``gamma`` is the effective percentile used (M2 only, else None);
    ``fell_back`` records a normal-scale request that had to be served by
    the logit variant.
    """

    c: float
    variant_used: CutoffVariant
    gamma: float | None = None
    fell_back: bool = False


def m1_cutoff(lp: LimitParams, alpha: float) -> CutoffResult:
    """Cut-off with limiting expected error exactly alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0,1), got {alpha}")
    c = math.sqrt(lp.v0) * std_normal_quantile(alpha) - lp.u0
    return CutoffResult(c=float(c), variant_used=CutoffVariant.M1)


def gamma_normal(eu: float, beta: float, tau: float) -> float:
    """Normal-scale adjusted percentile eu - tau * z_{1-beta}; may leave [0,1]."""
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    return eu - tau * std_normal_quantile(1.0 - beta)


def gamma_logit(eu: float, beta: float, tau_ell: float) -> float:
    """Logit-scale adjusted percentile; stays in (0,1) for any finite tau_ell.

    Equals ``eu / ((1-eu) * exp(tau_ell * z_{1-beta}) + eu)``, evaluated on
    the log-odds scale for numerical range.  The mathematical value is
    strictly interior; where it saturates in double precision the nearest
    representable interior value is returned.
    """
    if tau_ell < 0.0:
        raise ValueError("tau_ell must be nonnegative")
    shift = math.log(eu / (1.0 - eu)) - tau_ell * std_normal_quantile(1.0 - beta)
    # logistic(shift), stable on both sides
    if shift >= 0:
        out = 1.0 / (1.0 + math.exp(-shift))
    else:
        expo = math.exp(shift)
        out = expo / (1.0 + expo)
    if out <= 0.0:
        return math.nextafter(0.0, 1.0)
    if out >= 1.0:
        return math.nextafter(1.0, 0.0)
    return out


def m2_cutoff(
    lp: LimitParams,
    law: AsymptoticLaw,
    req: CutoffRequest,
    a1: float,
) -> CutoffResult:
    """Confidence-policy cut-off (-u0 + sqrt(v0) z_gamma) / a1.

    For ``M2_NORMAL`` requests with gamma outside (0,1) the logit variant
    is used instead and the result is flagged with ``fell_back=True``.
    gamma exactly 0 or 1 counts as out of range (its quantile is not
    defined).  The logit-scale spread rescales sqrt(tau2) by the logit
    derivative at the normal-scale gamma when that lies in (0,1), else it
    is sqrt(tau_ell2).  The division by ``a1`` makes this cut-off degree 0
    under data scaling x -> s x, where the M1 cut-off is degree 2.
    """
    if req.variant == CutoffVariant.M1:
        raise ValueError("m2_cutoff expects an M2 request")
    if not a1 > 0.0:
        raise CalibrationInfeasibleError(f"a1 = {a1:g} must be positive")
    eu, beta = req.eu, req.beta
    gamma_n = gamma_normal(eu, beta, math.sqrt(law.tau2))
    fell_back = False
    if req.variant == CutoffVariant.M2_NORMAL:
        if 0.0 < gamma_n < 1.0:
            c = (-lp.u0 + math.sqrt(lp.v0) * std_normal_quantile(gamma_n)) / a1
            return CutoffResult(c=float(c), variant_used=CutoffVariant.M2_NORMAL, gamma=gamma_n)
        fell_back = True
    if 0.0 < gamma_n < 1.0:
        spread = gamma_n * (1.0 - gamma_n)
        if law.logit_variance == "plain":
            tau_ell = math.sqrt(law.tau2 / spread)
        else:
            tau_ell = math.sqrt(law.tau2) / spread
    else:
        tau_ell = math.sqrt(law.tau_ell2)
    gamma = gamma_logit(eu, beta, tau_ell)
    if not 0.0 < gamma < 1.0:
        raise CalibrationInfeasibleError(
            f"logit-scale percentile degenerated to {gamma:g}"
        )
    c = (-lp.u0 + math.sqrt(lp.v0) * std_normal_quantile(gamma)) / a1
    return CutoffResult(
        c=float(c), variant_used=CutoffVariant.M2_LOGIT, gamma=gamma, fell_back=fell_back
    )


@dataclass(frozen=True)
class CalibrationOutcome:
    """Cut-off plus the intermediate quantities, for diagnostics."""

    result: CutoffResult
    limit: LimitParams
    law: AsymptoticLaw | None
    a1: float


def calibrate(
    traces,
    deltas,
    dims: Dims,
    request: CutoffRequest,
    logit_variance: str = DEFAULT_LOGIT_VARIANCE,
    anchor: str = DEFAULT_M2_ANCHOR,
) -> CalibrationOutcome:
    """Full pipeline from plug-in estimates to a cut-off.

    For M2 requests the error law must be evaluated at some cut-off before
    the adjusted percentile exists; ``anchor`` selects that point (see
    :data:`M2_ANCHORS`).  The fixed-point option iterates law evaluation
    and cut-off extraction until the cut-off stops moving.  The law uses
    :func:`~eddr.error_model.estimator_covariance`, the matrix that
    reproduces the reference simulation tables.
    """
    if anchor not in M2_ANCHORS:
        raise ValueError(f"unknown anchor {anchor!r}")
    lp = limit_params(deltas, traces, dims)
    if request.variant == CutoffVariant.M1:
        return CalibrationOutcome(
            result=m1_cutoff(lp, request.alpha), limit=lp, law=None, a1=traces.a1
        )
    theta = estimator_covariance(deltas, traces, dims)
    # start where the limiting error equals the target upper bound
    c = math.sqrt(lp.v0) * std_normal_quantile(request.eu) - lp.u0
    for _ in range(1 + FIXED_POINT_MAX_ITER if anchor == "fixed-point" else 1):
        law = asymptotic_law(lp, theta, c, logit_variance=logit_variance)
        res = m2_cutoff(lp, law, request, traces.a1)
        if abs(res.c - c) <= FIXED_POINT_TOL * (1.0 + abs(c)):
            break
        c = res.c
    return CalibrationOutcome(result=res, limit=lp, law=law, a1=traces.a1)


__all__ = [
    "CutoffVariant",
    "CutoffRequest",
    "CutoffResult",
    "CalibrationOutcome",
    "m1_cutoff",
    "gamma_normal",
    "gamma_logit",
    "m2_cutoff",
    "calibrate",
    "expected_error",
    "M2_ANCHORS",
    "DEFAULT_M2_ANCHOR",
]
