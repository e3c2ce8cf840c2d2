"""Exact symbolic expectations of Wishart trace polynomials.

Independent of the closed-form kernels under test: a Wishart matrix with
integer-Cholesky scale ``sigma = L L'`` is represented as ``W = L G G' L'``
where ``G`` is lower triangular with ``G[i][i]`` a chi variable on
``n - i`` degrees of freedom and strictly-lower entries standard normal,
all independent.  Every polynomial statistic of W is then a polynomial in
those variables with integer coefficients, and its expectation
factorizes monomial by monomial:

* any monomial with an odd exponent on a normal variable integrates to 0;
* the flip symmetry G -> G D (D diagonal +-1) forces the chi exponents to
  be even whenever all normal exponents are even, so only even chi
  powers survive, with E[chi^{2k}] = prod_{j<k} (df + 2j);
* E[z^{2m}] = (2m-1)!!.

Everything is exact integer/Fraction arithmetic.  The resulting value is
a polynomial identity in n, so agreement at >= 8 integer points pins any
degree-6 moment formula exactly.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

Poly = dict  # exponent tuple -> integer coefficient


def _padd_inplace(target: Poly, other: Poly, scale=1) -> None:
    for expo, coeff in other.items():
        new = target.get(expo, 0) + scale * coeff
        if new:
            target[expo] = new
        else:
            target.pop(expo, None)


def pmul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            new = out.get(key, 0) + c1 * c2
            if new:
                out[key] = new
            else:
                out.pop(key, None)
    return out


def pscale(a: Poly, s) -> Poly:
    return {e: s * c for e, c in a.items() if s * c}


def mat_mul(a, b):
    """Product of two matrices whose entries are Poly dicts."""
    size = len(a)
    out = [[{} for _ in range(size)] for _ in range(size)]
    for i in range(size):
        for j in range(size):
            acc: Poly = {}
            for k in range(size):
                if a[i][k] and b[k][j]:
                    _padd_inplace(acc, pmul(a[i][k], b[k][j]))
            out[i][j] = acc
    return out


def mat_mul_const(c, m):
    """(integer matrix c) @ (poly matrix m)."""
    size = len(m)
    out = [[{} for _ in range(size)] for _ in range(size)]
    for i in range(size):
        for j in range(size):
            acc: Poly = {}
            for k in range(size):
                if c[i][k] and m[k][j]:
                    _padd_inplace(acc, m[k][j], c[i][k])
            out[i][j] = acc
    return out


def mat_trace(m) -> Poly:
    acc: Poly = {}
    for i in range(len(m)):
        _padd_inplace(acc, m[i][i])
    return acc


def _double_factorial_odd(m: int) -> int:
    out = 1
    for k in range(1, 2 * m, 2):
        out *= k
    return out


class OraclePoly:
    """A Poly under sum, difference, product, integer power and division by exact scalars.

    Enough arithmetic for the estimators' scalar kernels to run on oracle
    polynomials unchanged; a plain int or Fraction operand is a constant
    polynomial, and every coefficient stays exact.
    """

    __slots__ = ("terms", "nvars")

    def __init__(self, terms: Poly, nvars: int):
        self.terms, self.nvars = terms, nvars

    def _lift(self, x) -> Poly:
        if isinstance(x, OraclePoly):
            return x.terms
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"not an exact scalar: {x!r}")
        return {(0,) * self.nvars: x} if x else {}

    def __add__(self, other):
        out = dict(self.terms)
        _padd_inplace(out, self._lift(other))
        return OraclePoly(out, self.nvars)

    __radd__ = __add__

    def __neg__(self):
        return OraclePoly(pscale(self.terms, -1), self.nvars)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        return OraclePoly(pmul(self.terms, self._lift(other)), self.nvars)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * Fraction(1, scalar)  # a float divisor raises TypeError

    def __pow__(self, k: int):
        out = OraclePoly(self._lift(1), self.nvars)
        for _ in range(k):
            out = out * self
        return out


class WishartPolyOracle:
    """Exact expectations for Wishart_p(n, L L') trace polynomials."""

    def __init__(self, l_factor):
        self.l = [list(map(int, row)) for row in l_factor]
        self.p = len(self.l)
        p = self.p
        # variable order: chi variables c_0..c_{p-1}, then normals z_(i,j) i>j
        self.z_index = {}
        for i in range(p):
            for j in range(i):
                self.z_index[(i, j)] = p + len(self.z_index)
        self.nvars = p + len(self.z_index)
        g = [[{} for _ in range(p)] for _ in range(p)]
        for i in range(p):
            g[i][i] = {self._unit(i): 1}
            for j in range(i):
                g[i][j] = {self._unit(self.z_index[(i, j)]): 1}
        lg = mat_mul_const(self.l, g)
        # W = (L G)(L G)'
        lg_t = [[lg[j][i] for j in range(p)] for i in range(p)]
        self.w = mat_mul(lg, lg_t)
        self._w_powers = {1: self.w}

    def _unit(self, var: int):
        e = [0] * self.nvars
        e[var] = 1
        return tuple(e)

    def sigma(self):
        p = self.p
        return [
            [sum(self.l[i][k] * self.l[j][k] for k in range(p)) for j in range(p)]
            for i in range(p)
        ]

    def w_power(self, k: int):
        if k not in self._w_powers:
            half = k // 2
            self._w_powers[k] = mat_mul(self.w_power(k - half), self.w_power(half))
        return self._w_powers[k]

    def expect(self, poly: Poly, n: int) -> Fraction:
        """Exact E[poly] at integer degrees of freedom n (valid for n >= p)."""
        p = self.p
        total = Fraction(0)
        for expo, coeff in poly.items():
            if any(expo[idx] % 2 for idx in range(p, self.nvars)):
                continue  # odd normal power
            if any(expo[i] % 2 for i in range(p)):
                raise AssertionError("odd chi power with even normal powers")
            term = Fraction(coeff)
            for i in range(p):
                k = expo[i] // 2
                for j in range(k):
                    term *= n - i + 2 * j
            for idx in range(p, self.nvars):
                term *= _double_factorial_odd(expo[idx] // 2)
            total += term
        return total

    # -- statistics used by the tests -------------------------------------

    def tr_aw_k(self, a, k: int) -> Poly:
        return mat_trace(mat_mul_const(a, self.w_power(k)))

    def tr_w_k(self, k: int) -> Poly:
        return mat_trace(self.w_power(k))

    def poly(self, terms: Poly) -> OraclePoly:
        """``terms`` wrapped for the estimators' kernels."""
        return OraclePoly(terms, self.nvars)

    def tr_awkbwm(self, a, b, k: int, m: int) -> Poly:
        awk = mat_mul_const(a, self.w_power(k))
        bwm = mat_mul_const(b, self.w_power(m))
        return mat_trace(mat_mul(awk, bwm))


def exact_trace_invariants(sigma, a, b):
    """Integer trace invariants of (sigma, a, b) in the kernel's layout."""
    from eddr.wishart import TraceInvariants

    p = len(sigma)

    def imat_mul(x, y):
        return [
            [sum(x[i][k] * y[k][j] for k in range(p)) for j in range(p)]
            for i in range(p)
        ]

    def itrace(x):
        return sum(x[i][i] for i in range(p))

    eye = [[int(i == j) for j in range(p)] for i in range(p)]
    powers = [eye, sigma]
    for _ in range(4):
        powers.append(imat_mul(powers[-1], sigma))
    sa = tuple(itrace(imat_mul(powers[i], a)) for i in range(6))
    sb = tuple(itrace(imat_mul(powers[i], b)) for i in range(6))
    m = {}
    for i, j in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1)]:
        m[(i, j)] = itrace(imat_mul(imat_mul(powers[i], a), imat_mul(powers[j], b)))
    return TraceInvariants(
        c1=itrace(powers[1]), c2=itrace(powers[2]), c3=itrace(powers[3]),
        c4=itrace(powers[4]), sa=sa, sb=sb, m=m,
    )


# ---------------------------------------------------------------------------
# p x p reference for the summary's power statistics
# ---------------------------------------------------------------------------

def pxp_pooled_covariance(x1, x2):
    """Pooled covariance of two groups of rows, divisor n1 + n2 - 2, as a p x p matrix."""
    c1 = x1 - x1.mean(axis=0)
    c2 = x2 - x2.mean(axis=0)
    s = (c1.T @ c1 + c2.T @ c2) / (x1.shape[0] + x2.shape[0] - 2)
    return (s + s.T) / 2.0


def pxp_power_stats(x1, x2):
    """t_k = tr(S^k), k = 1..4, and q_k = d'S^k d, k = 0..3, through the p x p S."""
    s = pxp_pooled_covariance(x1, x2)
    d = x1.mean(axis=0) - x2.mean(axis=0)
    s2 = s @ s
    sd = s @ d
    return {
        "t1": float(np.trace(s)),
        "t2": float(np.vdot(s, s)),
        "t3": float(np.vdot(s2, s)),
        "t4": float(np.vdot(s2, s2)),
        "q0": float(d @ d),
        "q1": float(d @ sd),
        "q2": float(sd @ sd),
        "q3": float(sd @ (s @ sd)),
    }
