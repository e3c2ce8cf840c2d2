"""Sample summaries, discriminant scores, and the scalar/matrix primitives they need.

The classifier compares squared Euclidean distances to the two group
centroids.  With unequal group sizes the naive sample version of that
score is biased by ``(N1-N2)/(N1*N2) * tr(S)``; ``discriminant_score``
subtracts that term so the score is centred at ``+|mu1-mu2|^2`` under
group 1 and ``-|mu1-mu2|^2`` under group 2.

All cut-offs in this package live on the half scale ``c``: the decision
threshold applied to the score is ``2*c`` (see :func:`classify`).
"""

from __future__ import annotations

import math
import operator
import statistics
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .exceptions import DimensionError, NotPositiveDefiniteError, ScoreOverflowError
from .threads import share

#: Group labels used throughout.
PI1 = 1
PI2 = 2

@dataclass(frozen=True)
class Dims:
    """Two-group design sizes (n1, n2, p), checked here and nowhere else.

    Each size must be an integer (anything :func:`operator.index` accepts,
    numpy integers included) and is stored as a Python ``int``.

    A :class:`TwoSampleSummary` is a ``Dims``, so it can go wherever the
    moment, limit and variance formulas expect one.
    """

    n1: int
    n2: int
    p: int

    def __post_init__(self):
        for name in ("n1", "n2", "p"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise DimensionError(f"{name} must be an integer, got {value!r}") from None
        if self.n1 < 2 or self.n2 < 2 or self.p < 1:
            raise DimensionError("need n1, n2 >= 2 and p >= 1")

    @property
    def n_total(self) -> int:
        return self.n1 + self.n2

    @property
    def n(self) -> int:
        return self.n1 + self.n2 - 2

_SYM_RTOL = 1e-12
_PSD_RTOL = 1e-10


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be a 2-d array, got ndim={a.ndim}")
    return a


def _as_vector(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 1:
        raise DimensionError(f"{name} must be a 1-d array, got ndim={a.ndim}")
    return a


def _check_finite(a: np.ndarray, name: str) -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite values")


def _check_symmetric(a: np.ndarray, name: str, rtol: float = _SYM_RTOL) -> None:
    scale = np.abs(a).max() if a.size else 0.0
    if scale == 0.0:
        return
    if np.abs(a - a.T).max() > rtol * scale:
        raise DimensionError(f"{name} is not symmetric within relative {rtol:g}")


def _check_psd(a: np.ndarray, name: str) -> None:
    """Reject matrices with pivots below ``-1e-10 * tr(a)/p``.

    Uses a Cholesky factorization of a copy shifted by twice the
    tolerance: positive semidefiniteness within tolerance is equivalent to
    the shifted matrix factorizing completely.
    """
    p = a.shape[0]
    tr = float(np.trace(a))
    if tr <= 0.0:
        # PSD with non-positive trace forces the zero matrix.
        if np.abs(a).max() > 0.0:
            raise NotPositiveDefiniteError(f"{name} has non-positive trace but is not zero")
        return
    shift = 2.0 * _PSD_RTOL * tr / p
    try:
        np.linalg.cholesky(a + shift * np.eye(p))
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(
            f"{name} fails the semidefiniteness check (pivot below -{_PSD_RTOL:g}*tr/p)"
        ) from None


@np.errstate(over="ignore", invalid="ignore")
def _power_stats(a: np.ndarray, v: np.ndarray) -> tuple:
    """tr(a), tr(a^2), then v' a^k v for k = 0..3, for a symmetric ``a``.

    Used for p <= N and by :meth:`TwoSampleSummary.from_covariance`; the
    dual branch of :func:`pooled_summary` does not call it.
    Matrix-vector products only: tr(a^3) and tr(a^4) need the product
    ``a @ a``, which :class:`TwoSampleSummary` forms on first read.  A
    statistic that overflows double precision comes out infinite or NaN;
    the estimators reject it, while the rule itself needs only ``tr a``.
    """
    av = a @ v
    return np.trace(a), np.vdot(a, a), v @ v, v @ av, av @ av, av @ (a @ av)


@dataclass(frozen=True, eq=False)
class TwoSampleSummary(Dims):
    """Sufficient statistics of the two training samples, and their :class:`Dims`.

    With ``S`` the pooled covariance (divisor ``n = n1 + n2 - 2``) and
    ``d = xbar1 - xbar2``, the summary holds ``t_k = tr(S^k)`` for
    k = 1..4 and ``q_k = d' S^k d`` for k = 0..3: everything the
    estimators, the calibration and the rule need.  ``t1``, ``t2`` and
    the ``q_k`` are computed up front.  ``t3`` and ``t4`` are read-only
    properties, computed together on first read from the last, private
    field: a symmetric matrix whose powers share their traces with those
    of ``S``, which is ``S`` itself when p <= N and the scaled dual Gram
    matrix ``G/n`` when p > N (see :func:`pooled_summary`).  The M1
    cut-off and the rule never read ``t3`` or ``t4``, so they never pay
    for that matrix product.  :func:`pooled_summary` builds a summary
    from data and :meth:`from_covariance` from a user-supplied ``S``.
    The fields start with the sizes ``n1, n2, p``, which
    :meth:`Dims.__post_init__` checks when the summary is built.
    Summaries compare and hash by identity, not by their sizes.
    """

    xbar1: np.ndarray
    xbar2: np.ndarray
    t1: float
    t2: float
    q0: float
    q1: float
    q2: float
    q3: float
    _power_base: np.ndarray = field(repr=False, compare=False)

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __post_init__(self):
        super().__post_init__()
        x1 = _as_vector(self.xbar1, "xbar1")
        x2 = _as_vector(self.xbar2, "xbar2")
        object.__setattr__(self, "xbar1", x1)
        object.__setattr__(self, "xbar2", x2)
        if x1.shape[0] != self.p or x2.shape[0] != self.p:
            raise DimensionError("xbar1 and xbar2 must have length p")
        base = _as_matrix(self._power_base, "power_base")
        if base.shape[0] != base.shape[1]:
            raise DimensionError("power_base must be square")
        object.__setattr__(self, "_power_base", base)

    @classmethod
    def from_covariance(cls, xbar1, xbar2, s, n1: int, n2: int) -> "TwoSampleSummary":
        """Summary of a user-supplied pooled covariance ``s``.

        ``s`` must be symmetric and positive semidefinite; it may be
        singular when p > n, since nothing downstream inverts it.  As for
        every summary, ``n1`` and ``n2`` must be at least 2.  The
        summary keeps its own copy of ``s``, so changing ``s`` afterwards
        leaves ``t3`` and ``t4`` as they were.
        """
        x1 = _as_vector(xbar1, "xbar1")
        x2 = _as_vector(xbar2, "xbar2")
        s = _as_matrix(s, "s")
        for name, a in (("xbar1", x1), ("xbar2", x2), ("s", s)):
            _check_finite(a, name)
        if x2.shape != x1.shape or s.shape != (x1.shape[0], x1.shape[0]):
            raise DimensionError("xbar1, xbar2 and s disagree on dimension")
        _check_symmetric(s, "s")
        _check_psd(s, "s")
        s = s.copy(order="K")
        return cls(n1, n2, x1.shape[0], x1, x2, *_power_stats(s, x1 - x2), s)

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def _high_traces(self) -> tuple:
        """(t3, t4) from one product ``a @ a`` (a symmetric rank update)."""
        a = self._power_base
        a2 = a @ a.T
        return np.vdot(a2, a), np.vdot(a2, a2)

    @property
    def t3(self) -> float:
        """tr(S^3); computed with ``t4`` on first read."""
        return self._high_traces[0]

    @property
    def t4(self) -> float:
        """tr(S^4); computed with ``t3`` on first read."""
        return self._high_traces[1]

    @property
    def mean_diff(self) -> np.ndarray:
        """xbar1 - xbar2."""
        return self.xbar1 - self.xbar2

    @property
    def score_bias(self) -> float:
        """(n1-n2)/(n1*n2) * tr(S), the bias of the naive score; exactly 0 when n1 = n2."""
        n1, n2 = self.n1, self.n2
        return 0.0 if n1 == n2 else (n1 - n2) / (n1 * n2) * float(self.t1)


def _as_observations(x) -> np.ndarray:
    """One group's data as a float matrix: rows are observations, columns features."""
    x = _as_matrix(x, "observations")
    if x.shape[0] < 2:
        raise DimensionError("each group needs at least 2 observations")
    if x.shape[1] < 1:
        raise DimensionError("need at least one feature column")
    if not np.isfinite(x).all():
        raise ValueError("observations contain non-finite values")
    return x


def _dual_gram(c: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(c @ c.T, c @ d)`` from the two row halves, the same bits with or without a helper.

    The rows are split at h = N // 2.  ``G`` is three products of the two
    halves, each one task of :func:`eddr.threads.share`: the off-diagonal
    block ``c[:h] @ c[h:].T``, which the same task mirrors below the
    diagonal, then the symmetric rank update of each half, bottom first.
    ``c @ d`` is the last task.
    """
    n = c.shape[0]
    top, bottom = slice(0, n // 2), slice(n // 2, n)
    g = np.empty((n, n))

    def product(r: slice, s: slice) -> None:
        np.matmul(c[r], c[s].T, out=g[r, s])
        if r != s:
            g[s, r] = g[r, s].T

    blocks = [(top, bottom), (bottom, bottom), (top, top)]
    *_, w = share([*(partial(product, *block) for block in blocks), partial(np.matmul, c, d)])
    return g, w


@np.errstate(over="ignore", invalid="ignore")
def pooled_summary(x1, x2, *, _stacked: np.ndarray | None = None) -> TwoSampleSummary:
    """Column means of both groups and the power statistics of their pooled covariance.

    ``x1`` and ``x2`` hold one group each, a row per observation.  Each
    must be a finite 2-d array with at least 2 rows and 1 column, and
    both must have the same number of columns: otherwise
    :class:`DimensionError`, or ``ValueError`` for a non-finite value.

    With ``C`` the stacked centred rows, ``S = C'C / n``.  ``S`` is never
    formed when p > N: the statistics come from the N x N dual matrix
    ``G = C C'`` (Yata & Aoshima, JMVA 105, 2012), whose powers share
    their traces with those of ``C'C``, and with ``w = C d`` the forms are
    ``q1 = |w|^2/n``, ``q2 = w'G w/n^2`` and ``q3 = |G w|^2/n^3``.  The
    summary keeps ``G/n`` (p > N) or ``S`` (p <= N) for ``t3`` and ``t4``,
    which need one more product of that matrix with itself and are
    computed only when first read.  The cost is O(N^2 p) when p > N, plus
    O(N^3) once ``t3``/``t4`` are read; O(N p^2) when p <= N, plus O(p^3).
    A statistic that overflows comes out infinite or NaN, as in
    :func:`_power_stats`.

    The groups are checked first, on this thread: group 1's errors come
    before group 2's, and both before a disagreement on p.  The rest is
    split into fixed tasks for :func:`eddr.threads.share`: each group's
    mean, centring and scaling is one task, and when p > N the three
    products of ``G``'s two row halves (see :func:`_dual_gram`) and
    ``C d`` are four more.  No task depends on the core count or on the
    thread that runs it, so on one BLAS thread neither do the bits of the
    summary.

    ``_stacked``, private: an (n1 + n2) x p float array whose two row
    blocks are ``x1`` and ``x2``.  It is centred and scaled in place, and
    so overwritten, instead of copied.
    """
    x1, x2 = _as_observations(x1), _as_observations(x2)
    (n1, p), n2 = x1.shape, x2.shape[0]
    if x2.shape[1] != p:
        raise DimensionError(f"groups disagree on dimension: {p} vs {x2.shape[1]}")
    c = np.empty((n1 + n2, p)) if _stacked is None else _stacked
    root = math.sqrt(n1 + n2 - 2)

    def centre(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        xbar = x.mean(axis=0)
        # C / sqrt(n): C'C / n = S and C C' / n = G / n
        np.subtract(x, xbar, out=y)
        y /= root
        return xbar

    xbar1, xbar2 = share([partial(centre, x1, c[:n1]), partial(centre, x2, c[n1:])])
    d = xbar1 - xbar2
    if p <= c.shape[0]:
        base = c.T @ c
        stats = _power_stats(base, d)
    else:
        base, w = _dual_gram(c, d)
        av = base @ w
        stats = (np.trace(base), np.vdot(base, base), d @ d, w @ w, w @ av, av @ av)
    return TwoSampleSummary(n1, n2, p, xbar1, xbar2, *stats, base)


@np.errstate(over="ignore", invalid="ignore")
def discriminant_score(x, summary: TwoSampleSummary) -> float:
    """Bias-corrected sample discriminant score.

    |x-xbar2|^2 - |x-xbar1|^2 - (n1-n2)/(n1*n2) * tr(S); the correction
    vanishes exactly for balanced designs.  Raises
    :class:`ScoreOverflowError` when a finite ``x`` gives a score outside
    double precision.
    """
    x = _as_vector(x, "x")
    if x.shape[0] != summary.p:
        raise DimensionError("x and summary disagree on dimension")
    d2 = x - summary.xbar2
    d1 = x - summary.xbar1
    score = float(d2 @ d2 - d1 @ d1) - summary.score_bias
    if not math.isfinite(score):
        raise ScoreOverflowError(f"discriminant score is not finite ({score})")
    return score


def classify(x, summary: TwoSampleSummary, c: float) -> int:
    """Assign ``x`` to group 1 iff its score exceeds ``2*c``; ties go to group 2.

    ``c`` is the half-scale cut-off produced by the calibration routines.
    """
    if not math.isfinite(c):
        raise ValueError("cut-off must be finite")
    return _label(discriminant_score(x, summary), c)


def _label(score: float, c: float) -> int:
    """The group of a point with discriminant score ``score`` at half-scale cut-off ``c``."""
    return PI1 if score > 2.0 * c else PI2


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF, as ``erfc(-x/sqrt(2))/2`` with :func:`math.erfc`."""
    if not math.isfinite(x):
        raise ValueError("argument must be finite")
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def std_normal_pdf(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _interior(u: float) -> float:
    """``u``, or the nearest double inside (0, 1) where it rounded onto 0.0 or 1.0."""
    if u <= 0.0:
        return math.nextafter(0.0, 1.0)
    if u >= 1.0:
        return math.nextafter(1.0, 0.0)
    return u


_STD_NORMAL = statistics.NormalDist()


def std_normal_quantile(u: float) -> float:
    """Inverse standard normal CDF on (0, 1): Wichura's AS241, as ``NormalDist().inv_cdf``."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"quantile argument must lie strictly in (0,1), got {u}")
    return _STD_NORMAL.inv_cdf(u)


def _as_square(a, name: str) -> np.ndarray:
    """``a`` as a finite, square, symmetric float matrix; the finiteness check runs first."""
    a = _as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise DimensionError("matrix must be square")
    _check_finite(a, name)
    _check_symmetric(a, name)
    return a


def cholesky(a) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric positive definite matrix."""
    a = _as_square(a, "a")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"matrix is not positive definite: {exc}") from exc


