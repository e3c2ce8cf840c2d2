"""Consistent estimators of spectral and signal-strength functionals.

Two families are estimated from a :class:`~eddr.core.TwoSampleSummary`:

* ``a_i = tr(Sigma^i) / p`` for i = 1..4, from traces of powers of the
  pooled covariance, with bias corrections that make a1..a4 exactly
  unbiased under Gaussian sampling;
* ``Delta_i = delta' Sigma^i delta`` for i = 0..3 with
  ``delta = mu1 - mu2``, from quadratic forms of the sample mean
  difference, re-centred to remove the inflation caused by the mean
  difference's own sampling noise.

The bias-corrected forms are *not* truncated at zero: in finite samples
a2..a4 and the Delta estimates can come out negative, and downstream
calibration is expected to detect and reject infeasible combinations
rather than have them silently clamped here.

The ``*_from_traces`` and ``*_from_stats`` kernels operate on plain
scalars (or numpy arrays, elementwise) so that batched Monte Carlo
checks can reuse them.  Two functions apply them to the power statistics
a summary holds (see :class:`~eddr.core.TwoSampleSummary`):
:func:`estimate_low` gives a1, a2, Delta_0 and Delta_1, all the M1
cut-off needs, and :func:`estimate_all` adds a3, a4, Delta_2 and
Delta_3.  Every summary has n1, n2 >= 2, so n >= 2, which is all
:func:`estimate_low` needs; :func:`estimate_all` needs n >= 7.  Both
raise :class:`~eddr.exceptions.CalibrationInfeasibleError` when an
estimate is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TwoSampleSummary
from .exceptions import CalibrationInfeasibleError, DimensionError


@dataclass(frozen=True)
class TraceEstimates:
    """Estimates of tr(Sigma^i)/p for i = 1..4."""

    a1: float
    a2: float
    a3: float
    a4: float


@dataclass(frozen=True)
class DeltaEstimates:
    """Estimates of delta' Sigma^i delta for i = 0..3."""

    d0: float
    d1: float
    d2: float
    d3: float


# ---------------------------------------------------------------------------
# scalar kernels on traces t_i = tr(S^i) and quadratic forms q_i = d' S^i d
# ---------------------------------------------------------------------------

def a1_from_traces(t1, p):
    return t1 / p


def a2_from_traces(t1, t2, n, p):
    return n**2 / (p * (n + 2) * (n - 1)) * (t2 - t1**2 / n)


def a3_from_traces(t1, t2, t3, n, p):
    return (
        n**2
        / ((n + 4) * (n + 2) * (n - 1) * (n - 2) * p)
        * (n**2 * t3 - 3 * n * t2 * t1 + 2 * t1**3)
    )


def a4_coefficients(n):
    """The five rational coefficients of the fourth-power trace estimator."""
    den = (n + 6) * (n + 4) * (n + 2) * (n + 1) * (n - 1) * (n - 2) * (n - 3)
    b1 = n**5 * (n**2 + n + 2) / den
    b2 = -4 * n**4 * (n**2 + n + 2) / den
    b3 = -(n**4) * (2 * n**2 + 3 * n - 6) / den
    b4 = 2 * n**4 * (5 * n + 6) / den
    b5 = -(n**3) * (5 * n + 6) / den
    return b1, b2, b3, b4, b5


def a4_from_traces(t1, t2, t3, t4, n, p):
    b1, b2, b3, b4, b5 = a4_coefficients(n)
    return (b1 * t4 + b2 * t3 * t1 + b3 * t2**2 + b4 * t1**2 * t2 + b5 * t1**4) / p


def delta0_from_stats(q0, a1, n1, n2, p):
    return q0 - (n1 + n2) * p / (n1 * n2) * a1


def delta1_from_stats(q1, a2, n1, n2, p):
    return q1 - (n1 + n2) * p / (n1 * n2) * a2


def delta2_from_stats(q2, d1, a1, a2, a3, n, n1, n2, p):
    centre = (n1 + n2) * p / (n1 * n2) * ((n + 1) / n * a3 + p / n * a1 * a2)
    return (q2 - p / n * a1 * d1 - centre) / (1 + 1 / n)


def delta3_from_stats(q3, d1, d2, a1, a2, a3, a4, n, n1, n2, p):
    lead = (n * (n + 3) + 4) / n**2
    centre = (n1 + n2) * p / (n1 * n2) * (
        lead * a4 + (n + 1) * p / n**2 * a2**2 + 2 * (n + 1) * p / n**2 * a1 * a3 + p**2 / n**2 * a1**2 * a2
    )
    num = q3 - (n + 1) * p / n**2 * a2 * d1 - 2 * (n + 1) * p / n**2 * a1 * d2 - p**2 / n**2 * a1**2 * d1 - centre
    return num / lead


# ---------------------------------------------------------------------------
# summary-based operations
# ---------------------------------------------------------------------------

#: Smallest n = n1 + n2 - 2 for which :func:`estimate_all` is defined.
_ALL_MIN_N = 7


def _finite(name: str, value) -> float:
    """``value`` as a float; a statistic that overflowed double precision raises."""
    value = float(value)
    if not math.isfinite(value):
        raise CalibrationInfeasibleError(
            f"estimate {name} is not finite ({value}): the data overflow double precision"
        )
    return value


@np.errstate(over="ignore", invalid="ignore")
def estimate_low(summary: TwoSampleSummary) -> tuple:
    """``(a1, a2, delta0, delta1)``: the estimates built from t1, t2, q0 and q1 alone.

    Never reads ``t3`` or ``t4``, so it never forms the product those
    need.  Each estimate is checked as soon as it exists, so an overflow
    names the first one it reaches; raises
    :class:`CalibrationInfeasibleError` if an estimate is not finite.
    """
    s = summary
    n, n1, n2, p = s.n, s.n1, s.n2, s.p
    a1 = _finite("a1", a1_from_traces(s.t1, p))
    a2 = _finite("a2", a2_from_traces(s.t1, s.t2, n, p))
    d0 = _finite("delta0", delta0_from_stats(s.q0, a1, n1, n2, p))
    d1 = _finite("delta1", delta1_from_stats(s.q1, a2, n1, n2, p))
    return a1, a2, d0, d1


@np.errstate(over="ignore", invalid="ignore")
def estimate_all(summary: TwoSampleSummary):
    """All eight estimates: those of :func:`estimate_low`, then a3, a4, delta2 and delta3.

    Requires n >= 7.  Each kernel runs once, in dependency order, and each
    result is checked as soon as it exists, so an overflow names the first
    estimate it reaches.  Returns ``(TraceEstimates, DeltaEstimates)``;
    raises :class:`CalibrationInfeasibleError` if an estimate is not
    finite.
    """
    s = summary
    n, n1, n2, p = s.n, s.n1, s.n2, s.p
    if n < _ALL_MIN_N:
        raise DimensionError(f"estimate_all requires n >= {_ALL_MIN_N}, got n = {n}")
    a1, a2, d0, d1 = estimate_low(s)
    a3 = _finite("a3", a3_from_traces(s.t1, s.t2, s.t3, n, p))
    a4 = _finite("a4", a4_from_traces(s.t1, s.t2, s.t3, s.t4, n, p))
    d2 = _finite("delta2", delta2_from_stats(s.q2, d1, a1, a2, a3, n, n1, n2, p))
    d3 = _finite("delta3", delta3_from_stats(s.q3, d1, d2, a1, a2, a3, a4, n, n1, n2, p))
    return (TraceEstimates(a1=a1, a2=a2, a3=a3, a4=a4),
            DeltaEstimates(d0=d0, d1=d1, d2=d2, d3=d3))
