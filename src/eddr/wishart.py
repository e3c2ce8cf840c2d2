"""Closed-form moments of Wishart trace functionals, plus samplers.

For ``W ~ Wishart_p(n, sigma)`` and symmetric ``a``, ``b`` this module
evaluates seven exact mixed moments up to total Wishart power six:

    i    E[tr(aW) tr(bW)]
    ii   E[tr(aWbW)]
    iii  E[tr(aW^3)]
    iv   E[tr(aW^2) tr(bW^2)]
    v    E[tr(aW^2 b W^2)]
    vi   E[tr(aW^3) tr(bW^3)]
    vii  E[tr(aW^3 b W^3)]

Each moment is a polynomial in n whose coefficients are trace invariants
of (sigma, a, b); the invariants are computed once per query and shared.
The polynomial kernels use only ring operations, so they evaluate exactly
when handed ``fractions.Fraction`` inputs — the test suite relies on this
to check them against an independent symbolic construction and against
the scalar reduction: at p = 1 with sigma = a = b = 1, every moment must
collapse to the chi-square moment prod_{k<m}(n + 2k) of total power m.

Two long coefficients in (vi) and (vii) are pinned by that scalar
reduction (see the inline notes); the (vii) constant-in-sigma term is
additionally pinned by the p >= 2 symbolic oracle.

Also here: the exact second-moment formulas used as Monte Carlo reference
bands for the spectral estimators, Gaussian quadratic-form moments, and a
Wishart sampler with an explicit random stream.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import Dims, _check_finite, _check_symmetric, cholesky
from .exceptions import DimensionError


class TraceInvariants(NamedTuple):
    """Trace data the moment polynomials are built from.

    ``c[i]`` is tr(sigma^i); ``sa[i]``/``sb[i]`` are tr(sigma^i a) and
    tr(sigma^i b); ``m[(i, j)]`` is tr(sigma^i a sigma^j b), symmetric in
    (i, j) and in (a, b).
    """

    c1: object
    c2: object
    c3: object
    c4: object
    sa: tuple
    sb: tuple
    m: dict


def trace_invariants(sigma, a, b) -> TraceInvariants:
    sigma = np.asarray(sigma, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    powers = [np.eye(sigma.shape[0]), sigma]
    for _ in range(4):
        powers.append(powers[-1] @ sigma)
    c1, c2, c3, c4 = (float(np.trace(powers[i])) for i in range(1, 5))
    sa = tuple(float(np.vdot(powers[i], a)) for i in range(6))  # sa[i] = tr(sigma^i a)
    sb = tuple(float(np.vdot(powers[i], b)) for i in range(6))
    m = {}
    for i, j in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1)]:
        m[(i, j)] = float(np.trace(powers[i] @ a @ powers[j] @ b))
    return TraceInvariants(c1=c1, c2=c2, c3=c3, c4=c4, sa=sa, sb=sb, m=m)


@dataclass(frozen=True)
class MomentQuery:
    """Degrees of freedom, scale matrix, and the two symmetric weights.

    ``n`` must be a positive integer (anything :func:`operator.index`
    accepts) and is stored as a Python ``int``.
    """

    n: int
    sigma: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        try:
            n = operator.index(self.n)
        except TypeError:
            n = 0
        if n < 1:
            raise ValueError(f"degrees of freedom must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", n)
        p = sigma.shape[0]
        for name, mat in (("sigma", sigma), ("a", a), ("b", b)):
            if mat.shape != (p, p):
                raise DimensionError(f"{name} must be {p}x{p}")
            _check_finite(mat, name)
            _check_symmetric(mat, name)
        cholesky(sigma)  # SPD required; its own checks cannot fail after the ones above

    @cached_property
    def invariants(self) -> TraceInvariants:
        return trace_invariants(self.sigma, self.a, self.b)


# ---------------------------------------------------------------------------
# polynomial kernels (ring operations only: exact under Fraction inputs)
# ---------------------------------------------------------------------------

def moment_i_terms(n, v: TraceInvariants):
    return n**2 * v.sa[1] * v.sb[1] + 2 * n * v.m[(1, 1)]


def moment_ii_terms(n, v: TraceInvariants):
    return (n**2 + n) * v.m[(1, 1)] + n * v.sa[1] * v.sb[1]


def moment_iii_terms(n, v: TraceInvariants):
    return (
        (n**3 + 3 * n**2 + 4 * n) * v.sa[3]
        + (n**2 + n) * v.c2 * v.sa[1]
        + 2 * n * (n + 1) * v.c1 * v.sa[2]
        + n * v.c1**2 * v.sa[1]
    )


def moment_iv_terms(n, v: TraceInvariants):
    sa, sb, m = v.sa, v.sb, v.m
    return (
        n * (n**2 + n + 2) * (n + 1) * sa[2] * sb[2]
        + v.c1**2 * (n**2 * sa[1] * sb[1] + 2 * n * m[(1, 1)])
        + v.c1
        * (
            n * (n**2 + n + 2) * sa[2] * sb[1]
            + n * (n**2 + n + 2) * sa[1] * sb[2]
            + 8 * n * (n + 1) * m[(2, 1)]
        )
        + v.c2 * (2 * n * sa[1] * sb[1] + 2 * n * (n + 1) * m[(1, 1)])
        + 4 * n * (n + 1) ** 2 * m[(2, 2)]
        + 4 * n * (n**2 + 3 * n + 4) * m[(3, 1)]
        + 4 * n * (n + 1) * (sa[3] * sb[1] + sa[1] * sb[3])
    )


def moment_v_terms(n, v: TraceInvariants):
    sa, sb, m = v.sa, v.sb, v.m
    return (
        2 * n * (n + 1) ** 2 * sa[2] * sb[2]
        + n * (n**2 + 3 * n + 4) * (n + 1) * m[(2, 2)]
        + v.c1**2 * (n * sa[1] * sb[1] + n * (n + 1) * m[(1, 1)])
        + v.c1
        * (
            2 * n * (n + 1) * (sa[2] * sb[1] + sa[1] * sb[2])
            + 2 * n * (n**2 + 3 * n + 4) * m[(2, 1)]
        )
        + v.c2 * (n * (n + 1) * sa[1] * sb[1] + n * (n + 3) * m[(1, 1)])
        + n * (n**2 + 3 * n + 4) * (sa[3] * sb[1] + sa[1] * sb[3])
        + 2 * n * (n**2 + 7 * n + 8) * m[(3, 1)]
    )


def moment_vi_terms(n, v: TraceInvariants):
    sa, sb, m = v.sa, v.sb, v.m
    c1, c2, c3, c4 = v.c1, v.c2, v.c3, v.c4
    group_c1_4 = n**2 * sa[1] * sb[1] + 2 * n * m[(1, 1)]
    group_c1_3 = (
        2 * n * (n**2 + n + 2) * (sb[1] * sa[2] + sa[1] * sb[2])
        + 16 * n * (n + 1) * m[(2, 1)]
    )
    # The cubic in the (sa[3] sb[1] + sa[1] sb[3]) term is pinned by the
    # p = 1 scalar reduction: the grouped sum must reproduce the sixth
    # chi-square moment for every n.
    group_c1_2 = (
        2 * n * (n**2 + n + 4) * sa[1] * sb[1] * c2
        + 12 * n * (n + 1) * m[(1, 1)] * c2
        + 4 * n * (n + 1) * (n**2 + n + 4) * sa[2] * sb[2]
        + n * (n**3 + 3 * n**2 + 24 * n + 20) * (sb[1] * sa[3] + sa[1] * sb[3])
        + 4 * n * (5 * n**2 + 11 * n + 8) * m[(2, 2)]
        + 24 * n * (n**2 + 3 * n + 4) * m[(3, 1)]
    )
    group_c1_1 = (
        2 * n * (n + 1) * (n**2 + n + 10) * (sb[1] * c2 * sa[2] + sa[1] * c2 * sb[2])
        + 2 * n * (n**4 + 4 * n**3 + 21 * n**2 + 38 * n + 32) * (sb[3] * sa[2] + sb[2] * sa[3])
        + 16 * n * (n + 1) * sa[1] * sb[1] * c3
        + 8 * n * (n**2 + 3 * n + 4) * c3 * m[(1, 1)]
        + 16 * n * (2 * n**2 + 5 * n + 5) * c2 * m[(2, 1)]
        + 4 * n * (7 * n**2 + 19 * n + 22) * (sb[1] * sa[4] + sa[1] * sb[4])
        + 16 * n * (2 * n**3 + 9 * n**2 + 21 * n + 16) * m[(3, 2)]
        + 16 * n * (n**3 + 6 * n**2 + 21 * n + 20) * m[(4, 1)]
    )
    group_const = (
        n * (n + 1) * (n**2 + n + 4) * sa[1] * sb[1] * c2**2
        + 4 * n * (5 * n**2 + 11 * n + 8) * c2 * sa[2] * sb[2]
        + 4 * n * (3 * n**2 + 7 * n + 6) * (sb[1] * sa[2] + sa[1] * sb[2]) * c3
        + 2 * n * (2 * n**2 + 5 * n + 5) * c2**2 * m[(1, 1)]
        + n * (n**4 + 4 * n**3 + 19 * n**2 + 36 * n + 36) * (sb[1] * sa[3] + sa[1] * sb[3]) * c2
        + n * (n**5 + 6 * n**4 + 27 * n**3 + 74 * n**2 + 156 * n + 120) * sa[3] * sb[3]
        + 4 * n * (2 * n**2 + 5 * n + 5) * sa[1] * sb[1] * c4
        + 2 * n * (n**3 + 6 * n**2 + 21 * n + 20) * m[(1, 1)] * c4
        + 8 * n * (n**3 + 5 * n**2 + 14 * n + 12) * c3 * m[(2, 1)]
        + 4 * n * (2 * n**3 + 9 * n**2 + 21 * n + 16)
        * (2 * sb[2] * sa[4] + 2 * sa[2] * sb[4] + c2 * m[(2, 2)])
        + 12 * n * (n**3 + 5 * n**2 + 14 * n + 12) * (c2 * m[(3, 1)] + sb[1] * sa[5] + sa[1] * sb[5])
        + 2 * n * (3 * n**4 + 20 * n**3 + 77 * n**2 + 152 * n + 132) * m[(3, 3)]
        + 8 * n * (n**4 + 8 * n**3 + 39 * n**2 + 80 * n + 64) * m[(4, 2)]
        + 4 * n * (n**4 + 10 * n**3 + 65 * n**2 + 160 * n + 148) * m[(5, 1)]
    )
    return (
        group_c1_4 * c1**4
        + group_c1_3 * c1**3
        + group_c1_2 * c1**2
        + group_c1_1 * c1
        + group_const
    )


def moment_vii_terms(n, v: TraceInvariants):
    sa, sb, m = v.sa, v.sb, v.m
    c1, c2, c3, c4 = v.c1, v.c2, v.c3, v.c4
    # Leading group pinned by the p >= 2 symbolic oracle: the n-linear
    # term multiplies the product of separate traces, mirroring moment ii.
    group_c1_4 = (n**2 + n) * m[(1, 1)] + n * sa[1] * sb[1]
    group_c1_3 = (
        4 * n * (n + 1) * (sb[1] * sa[2] + sa[1] * sb[2])
        + 4 * n * (n**2 + 3 * n + 4) * m[(2, 1)]
    )
    group_c1_2 = (
        6 * n * (n + 1) * sa[1] * sb[1] * c2
        + 2 * n * (n**2 + 4 * n + 7) * m[(1, 1)] * c2
        + 2 * n * (5 * n**2 + 11 * n + 8) * sa[2] * sb[2]
        + 6 * n * (n**2 + 3 * n + 4) * (sb[1] * sa[3] + sa[1] * sb[3])
        + 2 * n * (2 * n**3 + 9 * n**2 + 21 * n + 16) * m[(2, 2)]
        + 2 * n * (n**3 + 9 * n**2 + 42 * n + 44) * m[(3, 1)]
    )
    group_c1_1 = (
        4 * n * (2 * n**2 + 5 * n + 5) * (sb[1] * sa[2] + sa[1] * sb[2]) * c2
        + 4 * n * (2 * n**3 + 9 * n**2 + 21 * n + 16) * (sb[3] * sa[2] + sb[2] * sa[3])
        + 4 * n * (n**2 + 3 * n + 4) * sa[1] * sb[1] * c3
        + 4 * n * (n**2 + 7 * n + 8) * c3 * m[(1, 1)]
        + 4 * n * (n**3 + 6 * n**2 + 21 * n + 20)
        * (c2 * m[(2, 1)] + sb[1] * sa[4] + sa[1] * sb[4])
        + 4 * n * (n**4 + 8 * n**3 + 39 * n**2 + 80 * n + 64) * m[(3, 2)]
        + 8 * n * (n**3 + 13 * n**2 + 40 * n + 42) * m[(4, 1)]
    )
    # The quartic multiplying c2 * m[(3, 1)] is pinned by the p = 1 scalar
    # reduction (sixth chi-square moment), which fixes all six of its
    # degree coefficients simultaneously.
    group_const = (
        n * (2 * n**2 + 5 * n + 5) * sa[1] * sb[1] * c2**2
        + 2 * n * (2 * n**3 + 9 * n**2 + 21 * n + 16) * c2 * sa[2] * sb[2]
        + n * (n**3 + 5 * n**2 + 14 * n + 12)
        * (
            2 * (sb[1] * sa[2] + sa[1] * sb[2]) * c3
            + 3 * (sb[1] * c2 * sa[3] + sa[1] * c2 * sb[3])
        )
        + n * (n**3 + 4 * n**2 + 10 * n + 9) * c2**2 * m[(1, 1)]
        + n * (3 * n**4 + 20 * n**3 + 77 * n**2 + 152 * n + 132) * sa[3] * sb[3]
        + n * (n**3 + 6 * n**2 + 21 * n + 20) * sa[1] * sb[1] * c4
        + n * (n**3 + 14 * n**2 + 41 * n + 40) * m[(1, 1)] * c4
        + 4 * n * (n**3 + 11 * n**2 + 28 * n + 24) * c3 * m[(2, 1)]
        + 2 * n * (n**4 + 8 * n**3 + 39 * n**2 + 80 * n + 64) * (sb[2] * sa[4] + sa[2] * sb[4])
        + 2 * n * (2 * n**3 + 19 * n**2 + 43 * n + 32) * c2 * m[(2, 2)]
        + 2 * n * (n**4 + 7 * n**3 + 34 * n**2 + 78 * n + 72) * c2 * m[(3, 1)]
        + n * (n**4 + 10 * n**3 + 65 * n**2 + 160 * n + 148) * (sb[1] * sa[5] + sa[1] * sb[5])
        + n * (n**5 + 9 * n**4 + 47 * n**3 + 151 * n**2 + 308 * n + 252) * m[(3, 3)]
        + 4 * n * (n**4 + 16 * n**3 + 75 * n**2 + 164 * n + 128) * m[(4, 2)]
        + 2 * n * (n**4 + 22 * n**3 + 125 * n**2 + 328 * n + 292) * m[(5, 1)]
    )
    return (
        group_c1_4 * c1**4
        + group_c1_3 * c1**3
        + group_c1_2 * c1**2
        + group_c1_1 * c1
        + group_const
    )


_MOMENT_KERNELS = {
    "i": moment_i_terms,
    "ii": moment_ii_terms,
    "iii": moment_iii_terms,
    "iv": moment_iv_terms,
    "v": moment_v_terms,
    "vi": moment_vi_terms,
    "vii": moment_vii_terms,
}

#: Total Wishart power of each moment (the chi-square reduction order).
MOMENT_POWERS = {"i": 2, "ii": 2, "iii": 3, "iv": 4, "v": 4, "vi": 6, "vii": 6}


def all_moments(q: MomentQuery) -> dict:
    """All seven moments, keyed "i" … "vii", sharing one invariant computation."""
    v = q.invariants
    return {name: float(kernel(q.n, v)) for name, kernel in _MOMENT_KERNELS.items()}


def chi_square_moment(df: int, order: int) -> int:
    """Exact E[X^order] for X ~ chi-square with ``df`` degrees of freedom."""
    out = 1
    for k in range(order):
        out *= df + 2 * k
    return out


# ---------------------------------------------------------------------------
# Gaussian quadratic forms
# ---------------------------------------------------------------------------

def _check_square_pair(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float) if b is not None else None
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError("a must be square")
    if b is not None and b.shape != a.shape:
        raise DimensionError("a and b must have the same shape")
    return a, b


def quad_moment_mean(a) -> float:
    """E[x'ax] = tr(a) for x standard normal."""
    a, _ = _check_square_pair(a, None)
    return float(np.trace(a))


def quad_moment_product(a, b) -> float:
    """E[x'ax x'bx] = 2 tr(ab) + tr(a) tr(b) for x standard normal."""
    a, b = _check_square_pair(a, b)
    return float(2.0 * np.vdot(a, b) + np.trace(a) * np.trace(b))


# ---------------------------------------------------------------------------
# exact variances used as Monte Carlo reference bands
# ---------------------------------------------------------------------------

def var_a1(n: int, p: int, a2: float) -> float:
    """Exact variance of the tr(S)/p estimator."""
    return 2.0 * a2 / (n * p)


def var_a2(n: int, p: int, a2: float, a4: float) -> float:
    """Exact variance of the bias-corrected tr(Sigma^2)/p estimator."""
    return (
        8.0 * (n + 2) * (n + 3) * (n - 1) ** 2 * a4 / (p * n**5)
        + 4.0 * (n + 2) * (n - 1) * (a2**2 - a4 / p) / n**4
    )


def var_delta1(dims: Dims, delta1: float, delta3: float, a2: float, a4: float) -> float:
    """Variance of the known-spectrum estimator of delta' Sigma delta."""
    n1, n2, p = dims.n1, dims.n2, dims.p
    n_tot, n = dims.n_total, dims.n
    return (
        2.0 * a2**2 * n_tot**2 * p**2 / (n * n1**2 * n2**2)
        + 4.0 * a2 * delta1 * n_tot * p / (n * n1 * n2)
        + 2.0 * a4 * n_tot**3 * p / (n * n1**2 * n2**2)
        + 2.0 * delta1**2 / n
        + 4.0 * delta3 * n_tot**2 / (n * n1 * n2)
    )


def _quad_form_cov(dims: Dims, delta: float, a: float) -> float:
    """Covariance 4 c delta + 2 c^2 p a of two quadratic forms in the mean difference.

    For the mean difference d ~ N(delta, c Sigma) with c = N/(n1 n2),
    independent of S with E[S] = Sigma, the quadratic forms d'd and d'Sd
    have conditional covariance 4 c delta' Sigma S delta +
    2 c^2 tr(Sigma S Sigma); averaged over S, with E[tr(Sigma S Sigma)] =
    tr(Sigma^3), that is 4 c delta_2 + 2 c^2 p a3.  In general the forms
    d' Sigma^i d and d' Sigma^j d have covariance 4 c delta_{i+j+1} +
    2 c^2 p a_{i+j+2}: with (delta_1, a2) the variance of d'd, with
    (delta_3, a4) that of d' Sigma d.
    """
    n1, n2, p = dims.n1, dims.n2, dims.p
    n_tot = dims.n_total
    return 4.0 * n_tot * delta / (n1 * n2) + 2.0 * n_tot**2 * p * a / (n1 * n2) ** 2


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_wishart(n: int, sigma, rng: np.random.Generator) -> np.ndarray:
    """One draw from Wishart_p(n, sigma).

    Uses the triangular (chi / normal) construction when n >= p, and the
    sum of n Gaussian outer products otherwise; both consume only the
    supplied generator.
    """
    if n < 1:
        raise ValueError("degrees of freedom must be >= 1")
    chol_l = cholesky(sigma)
    return _sample_wishart_batch(n, chol_l, rng, 1)[0]


def _sample_wishart_batch(
    n: int, chol_l: np.ndarray, rng: np.random.Generator, size: int
) -> np.ndarray:
    p = chol_l.shape[0]
    if n >= p:
        g = np.zeros((size, p, p))
        for i in range(p):
            g[:, i, i] = np.sqrt(rng.chisquare(n - i, size))
            if i:
                g[:, i, :i] = rng.standard_normal((size, i))
        lg = np.einsum("ij,bjk->bik", chol_l, g)
        return np.einsum("bik,bjk->bij", lg, lg)
    y = rng.standard_normal((size, n, p)) @ chol_l.T
    return np.einsum("bni,bnj->bij", y, y)


__all__ = [
    "MomentQuery",
    "TraceInvariants",
    "trace_invariants",
    "all_moments",
    "chi_square_moment",
    "quad_moment_mean",
    "quad_moment_product",
    "var_a1",
    "var_a2",
    "var_delta1",
    "sample_wishart",
    "MOMENT_POWERS",
]
