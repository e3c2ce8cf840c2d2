"""Cut-off selection for the discriminant rule.

Both policies take a quantile of the limiting normal law of the score:
the half-scale cut-off whose limiting expected error is ``g`` is

    c(g) = sqrt(v0) * z_g - u0,

so that ``expected_error(lp, c(g)) == g``.  The expected-error policy
("M1") takes it at the target ``g = alpha``.  The confidence policy
("M2") bounds the *conditional* error by ``eu`` with probability
``1-beta``; that leads to an adjusted percentile ``gamma`` and the
cut-off ``c(gamma)``.  Like the score, every cut-off scales by ``s^2``
when the data are multiplied by ``s``.  The normal-scale gamma can leave
(0, 1); the logit-scale variant cannot, and is also the documented
fallback when that happens.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .core import TwoSampleSummary, _interior, std_normal_quantile
from .error_model import (
    AsymptoticLaw,
    LimitParams,
    asymptotic_law,
    estimator_covariance,
    limit_values,
)
from .estimators import estimate_all, estimate_low
from .exceptions import CalibrationInfeasibleError

#: Where the error law is evaluated before an M2 cut-off is extracted.
#: "eu" anchors it at the cut-off whose limiting error equals the target
#: upper bound; "fixed-point" re-evaluates the law at the candidate
#: cut-off until it is self-consistent.
M2_ANCHORS = ("eu", "fixed-point")
DEFAULT_M2_ANCHOR = "eu"

#: How the logit variant of M2 spreads the error law on the logit scale
#: at a percentile g in (0, 1): "plain" gives tau_ell = sqrt(tau2 /
#: (g(1-g))), "delta" the delta-method form sqrt(tau2) / (g(1-g)).
#: "delta" is the default: it is consistent with the derivative of the
#: logit map and reproduces the reference confidence tables (see README).
LOGIT_VARIANCE_CONVENTIONS = ("plain", "delta")
DEFAULT_LOGIT_VARIANCE = "delta"

#: The fixed-point anchor stops once the law's cut-off is within
#: FIXED_POINT_TOL * (sqrt(v0) + |c|) of its anchor c, a bound that scales
#: like the cut-off, and is refused after FIXED_POINT_MAX_ITER updates.
FIXED_POINT_MAX_ITER = 100
FIXED_POINT_TOL = 1e-10


class CutoffVariant(enum.Enum):
    M1 = "m1"
    M2_NORMAL = "m2-normal"
    M2_LOGIT = "m2-logit"


@dataclass(frozen=True)
class CutoffRequest:
    """Calibration policy plus its parameters.

    Exactly the fields of the chosen variant may be set: ``alpha`` for
    M1; ``eu``, ``beta`` and the two M2 knobs for either M2 variant.
    ``anchor`` (one of :data:`M2_ANCHORS`) picks where the error law is
    evaluated and ``logit_variance`` (one of
    :data:`LOGIT_VARIANCE_CONVENTIONS`) how the logit variant spreads it;
    an M2 request left without them gets the defaults.
    """

    variant: CutoffVariant
    alpha: float | None = None
    eu: float | None = None
    beta: float | None = None
    anchor: str | None = None
    logit_variance: str | None = None

    def __post_init__(self):
        def _in_unit(name, value):
            if value is None or not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly in (0,1), got {value}")

        if self.variant == CutoffVariant.M1:
            _in_unit("alpha", self.alpha)
            if any(v is not None for v in (self.eu, self.beta, self.anchor, self.logit_variance)):
                raise ValueError("eu/beta/anchor/logit_variance are not part of an M1 request")
            return
        _in_unit("eu", self.eu)
        _in_unit("beta", self.beta)
        if self.alpha is not None:
            raise ValueError("alpha is not part of an M2 request")
        if self.anchor is None:
            object.__setattr__(self, "anchor", DEFAULT_M2_ANCHOR)
        if self.logit_variance is None:
            object.__setattr__(self, "logit_variance", DEFAULT_LOGIT_VARIANCE)
        if self.anchor not in M2_ANCHORS:
            raise ValueError(f"unknown anchor {self.anchor!r}")
        if self.logit_variance not in LOGIT_VARIANCE_CONVENTIONS:
            raise ValueError(f"unknown logit variance convention {self.logit_variance!r}")

    @classmethod
    def m1(cls, alpha: float) -> "CutoffRequest":
        return cls(variant=CutoffVariant.M1, alpha=alpha)

    @classmethod
    def m2_normal(cls, eu: float, beta: float, *, anchor: str | None = None,
                  logit_variance: str | None = None) -> "CutoffRequest":
        return cls(variant=CutoffVariant.M2_NORMAL, eu=eu, beta=beta, anchor=anchor,
                   logit_variance=logit_variance)

    @classmethod
    def m2_logit(cls, eu: float, beta: float, *, anchor: str | None = None,
                 logit_variance: str | None = None) -> "CutoffRequest":
        return cls(variant=CutoffVariant.M2_LOGIT, eu=eu, beta=beta, anchor=anchor,
                   logit_variance=logit_variance)


@dataclass(frozen=True)
class CutoffResult:
    """Half-scale cut-off plus how it was obtained.

    ``limit`` holds the limiting parameters the cut-off was read from.
    ``gamma`` is the effective percentile used and ``law`` the error law
    it came from (M2 only, else None); ``fell_back`` records a
    normal-scale request that had to be served by the logit variant.
    ``law`` holds arrays, so it takes no part in equality.
    """

    c: float
    variant_used: CutoffVariant
    limit: LimitParams
    gamma: float | None = None
    fell_back: bool = False
    law: AsymptoticLaw | None = field(default=None, compare=False)


def _quantile_cutoff(lp: LimitParams, g: float) -> float:
    """sqrt(v0) z_g - u0: the cut-off whose limiting expected error is g."""
    return float(math.sqrt(lp.v0) * std_normal_quantile(g) - lp.u0)


def m1_cutoff(lp: LimitParams, alpha: float) -> CutoffResult:
    """Cut-off with limiting expected error exactly alpha; ValueError unless 0 < alpha < 1."""
    return CutoffResult(c=_quantile_cutoff(lp, alpha), variant_used=CutoffVariant.M1, limit=lp)


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
    return _interior(out)


def m2_cutoff(lp: LimitParams, law: AsymptoticLaw, req: CutoffRequest) -> CutoffResult:
    """Confidence-policy cut-off sqrt(v0) z_gamma - u0: the M1 formula at gamma.

    For ``M2_NORMAL`` requests with gamma outside (0,1) the logit variant
    is used instead and the result is flagged with ``fell_back=True``.
    gamma exactly 0 or 1 counts as out of range (its quantile is not
    defined).  The logit variant spreads the law by ``req.logit_variance``
    (see :data:`LOGIT_VARIANCE_CONVENTIONS`) at the normal-scale gamma
    when that lies in (0,1), else at the law's e0.  Like the M1 cut-off,
    it scales by ``s^2`` under data scaling x -> s x.
    """
    if req.variant == CutoffVariant.M1:
        raise ValueError("m2_cutoff expects an M2 request")
    eu, beta = req.eu, req.beta
    gamma_n = gamma_normal(eu, beta, math.sqrt(law.tau2))
    fell_back = False
    if req.variant == CutoffVariant.M2_NORMAL:
        if 0.0 < gamma_n < 1.0:
            return CutoffResult(c=_quantile_cutoff(lp, gamma_n),
                                variant_used=CutoffVariant.M2_NORMAL, limit=lp, gamma=gamma_n,
                                law=law)
        fell_back = True
    g = gamma_n if 0.0 < gamma_n < 1.0 else law.e0
    spread = g * (1.0 - g)  # > 0 for any double g in (0, 1)
    if req.logit_variance == "plain":
        tau_ell = math.sqrt(law.tau2 / spread)
    else:
        tau_ell = math.sqrt(law.tau2) / spread
    gamma = gamma_logit(eu, beta, tau_ell)
    if not 0.0 < gamma < 1.0:
        raise CalibrationInfeasibleError(
            f"logit-scale percentile degenerated to {gamma:g}"
        )
    return CutoffResult(c=_quantile_cutoff(lp, gamma), variant_used=CutoffVariant.M2_LOGIT,
                        limit=lp, gamma=gamma, fell_back=fell_back, law=law)


@np.errstate(over="ignore", invalid="ignore")
def calibrate(summary: TwoSampleSummary, request: CutoffRequest) -> CutoffResult:
    """Cut-off for ``request`` from the training data's summary.

    M1 needs only the a2, delta0 and delta1 estimates of
    :func:`~eddr.estimators.estimate_low`, so it works from n = 2 on.  M2
    needs all eight (n >= 7).  Its error law must be
    evaluated at some cut-off before the adjusted percentile exists;
    ``request.anchor`` selects that point (see :data:`M2_ANCHORS`).  The
    fixed-point option moves the anchor halfway to the law's cut-off
    until the two agree (the halving contracts for any slope of that map
    in (-3, 1)), and raises :class:`CalibrationInfeasibleError` if they
    still differ after :data:`FIXED_POINT_MAX_ITER` updates.  The law uses
    :func:`~eddr.error_model.estimator_covariance`, the matrix that
    reproduces the reference simulation tables.  An estimate that
    overflows raises :class:`CalibrationInfeasibleError` instead of a
    numpy warning.
    """
    if request.variant == CutoffVariant.M1:
        _, a2, d0, d1 = estimate_low(summary)
        return m1_cutoff(LimitParams(*limit_values(d0, d1, a2, summary)), request.alpha)
    traces, deltas = estimate_all(summary)
    lp = LimitParams(*limit_values(deltas.d0, deltas.d1, traces.a2, summary))
    theta = estimator_covariance(deltas, traces, summary)
    # start where the limiting error equals the target upper bound
    c = _quantile_cutoff(lp, request.eu)
    for _ in range(1 + FIXED_POINT_MAX_ITER):
        res = m2_cutoff(lp, asymptotic_law(lp, theta, c), request)
        moved = abs(res.c - c)
        if request.anchor == "eu" or moved <= FIXED_POINT_TOL * (math.sqrt(lp.v0) + abs(c)):
            return res
        c = 0.5 * (c + res.c)
    raise CalibrationInfeasibleError(
        f"fixed-point cut-off not self-consistent after {FIXED_POINT_MAX_ITER} updates"
    )


__all__ = [
    "CutoffVariant",
    "CutoffRequest",
    "CutoffResult",
    "m1_cutoff",
    "gamma_normal",
    "gamma_logit",
    "m2_cutoff",
    "calibrate",
    "M2_ANCHORS",
    "DEFAULT_M2_ANCHOR",
    "LOGIT_VARIANCE_CONVENTIONS",
    "DEFAULT_LOGIT_VARIANCE",
]
