"""Monte Carlo study of the calibrated rule's attained error and confidence.

Each trial draws fresh training data from a two-group Gaussian design
with a banded correlation matrix, calibrates a cut-off from that data
alone, and then evaluates the *exact* conditional misclassification
error of the fitted rule using the true population parameters: given the
training statistics, the score of a new group-1 point is Gaussian, so
the error is Phi((U + bias + c)/sqrt(V)) with

    U    = (xbar1-xbar2)'(xbar1-mu1) - |xbar1-xbar2|^2 / 2,
    V    = (xbar1-xbar2)' Sigma (xbar1-xbar2),
    bias = (n1-n2)/(n1*n2) * tr(S) / 2,

the bias being half the score's trace correction.

Trials are drawn in Sigma's eigenbasis.  With Sigma = W Lambda W', the
rule, U, V, the bias and every statistic the calibration reads are
unchanged when the data, the means and Sigma are rotated together by W',
so a trial drawn from N(W'mu_k, Lambda) has exactly the law of one drawn
from N(mu_k, Sigma).  Sampling is then a per-coordinate scaling, O(Np),
and V = sum_i lambda_i d_i^2 costs O(p); the population is three
p-vectors.

The banded Sigma is symmetric Toeplitz, hence centrosymmetric, and its
eigenproblem splits into a symmetric and an antisymmetric half of size
about p/2 each.  :func:`make_population` solves those two and never
forms a p x p matrix: the eigenvalues cost about a quarter of a full
``eigh``, and only the symmetric half, which holds the direction 1 of
mu1, needs eigenvectors.  mu1 is zero on the antisymmetric half and
signed to be nonnegative on the other.  A diagonal Sigma (rho = 0 or
bandwidth 0) needs no solver.

Each chunk of trials draws into one resident (n1 + n2) x p work matrix,
which :func:`pooled_summary` centres in place.

No test points are ever classified.  Aggregating the per-trial errors
gives the attained error rate (for expected-error calibration) and the
attained confidence level (for confidence calibration).

Reproducibility contract: trial i draws all of its randomness from a
substream derived from (seed, i), so results are bit-identical for any
worker count and any scheduling order.  A group of more than
:data:`BLOCK_ROWS` rows is drawn in blocks of that many rows, block 0
from the trial's generator and block k >= 1 from its k-th spawned child;
a smaller group is one draw from the trial's generator.  Building a
population and running a chunk of trials pin OpenBLAS to one thread
(:func:`eddr.threads.one_blas_thread`), and one helper thread of that
block takes the freed core.  The caller and the helper take fixed tasks
from one queue (:func:`eddr.threads.share`): the two eigenproblems of a
population and, in a chunk whose groups exceed ``BLOCK_ROWS`` rows, each
substream block of a draw, each group's centring in
:func:`pooled_summary` and each block of its dual Gram matrix.  A task
computes the same bits whichever thread runs it, so records are also
bit-identical across BLAS thread counts and with the helper on or off.
Where no OpenBLAS thread setter is found, nothing is pinned and the bits
of large designs may depend on the BLAS thread count.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .calibration import CutoffRequest, CutoffVariant, calibrate
from .core import (BLOCK_ROWS, Dims, TwoSampleSummary, _interior, cholesky, pooled_summary,
                   std_normal_cdf)
# not called here: the traced benchmark (perfbench/sims.py) wraps
# eddr.simulate.estimate_all by name
from .estimators import _ALL_MIN_N, estimate_all  # noqa: F401
from .exceptions import (
    CalibrationInfeasibleError,
    DimensionError,
    NotPositiveDefiniteError,
    SimulationError,
)
from .threads import cores, one_blas_thread, share

#: Separation between the group means on the squared-distance scale used
#: by the simulation design: mu1 is placed so that Sigma^{-1/2} mu1 has
#: squared norm 5 regardless of dimension, mu2 at the origin.
DESIGN_SEPARATION = 5.0

#: Largest tolerated fraction of trials lost to calibration infeasibility.
MAX_EXCLUDED_FRACTION = 1e-3


@dataclass(frozen=True)
class SimConfig:
    """Design and execution parameters of one simulation run.

    ``reps``, ``seed``, ``bandwidth`` and ``workers`` must be integers
    (anything :func:`operator.index` accepts) and are stored as Python
    ``int``; the sizes are checked by :class:`~eddr.core.Dims`.  The
    cut-off policy and its knobs are all in ``request``; an M2 request
    needs the n1 + n2 - 2 >= 7 of :func:`~eddr.estimators.estimate_all`.
    """

    p: int
    n1: int
    n2: int
    rho: float
    reps: int
    seed: int
    request: CutoffRequest
    bandwidth: int = 50
    workers: int = 1

    def __post_init__(self):
        for name in ("reps", "seed", "bandwidth", "workers"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.reps < 1:  # before the sizes: `simulate --reps 0` is a usage error on any grid
            raise ValueError("reps must be positive")
        n = Dims(self.n1, self.n2, self.p).n  # raises DimensionError for bad sizes
        if self.request.variant != CutoffVariant.M1 and n < _ALL_MIN_N:
            raise DimensionError(f"M2 calibration requires n >= {_ALL_MIN_N}, got n = {n}")
        if not abs(self.rho) < 1:
            raise ValueError("rho must satisfy |rho| < 1")
        if self.bandwidth < 0:
            raise ValueError("bandwidth must be nonnegative")
        if self.workers < 1:
            raise ValueError("workers must be positive")


@dataclass(frozen=True, slots=True)
class TrialRecord:
    """Outcome of one feasible trial.

    Slotted: a run keeps every record, and without a per-record
    ``__dict__`` each takes about 40 bytes less.
    """

    cond_error: float
    cutoff: float
    fell_back: bool

    def __post_init__(self):
        if not 0.0 < self.cond_error < 1.0:
            raise SimulationError(
                f"conditional error {self.cond_error:g} left the open unit interval"
            )


class AggregateStat(NamedTuple):
    value: float
    se: float


def _band_row(p: int, rho: float, bandwidth: int) -> np.ndarray:
    """First row of the banded correlation matrix: rho^k for k <= bandwidth, 0 beyond."""
    if not abs(rho) < 1:
        raise ValueError("rho must satisfy |rho| < 1")
    first = np.zeros(p)
    k = np.arange(min(bandwidth, p - 1) + 1)
    first[k] = rho ** k.astype(float)
    first[0] = 1.0
    return first


def band_sigma(p: int, rho: float, bandwidth: int = SimConfig.bandwidth) -> np.ndarray:
    """Correlation matrix with entries rho^|i-j| inside the band, 0 outside.

    Unit diagonal by construction; positive definiteness is verified by a
    Cholesky factorization.
    """
    first = _band_row(p, rho, bandwidth)
    i = np.arange(p)
    sigma = first[np.abs(i[:, None] - i)]
    cholesky(sigma)  # raises NotPositiveDefiniteError on failure
    return sigma


def _centrosymmetric_blocks(first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Blocks S+ and S- of the symmetric Toeplitz matrix with first row ``first``.

    With m = p // 2, the orthonormal vectors (e_i + e_{p-1-i})/sqrt(2) and
    (e_i - e_{p-1-i})/sqrt(2), i < m, plus e_m when p is odd, reduce the
    matrix to diag(S+, S-) (Cantoni & Butler, Linear Algebra Appl. 13,
    1976).  On the first m coordinates S+- = T +- H, with
    T[i, j] = first[|i-j|] and H[i, j] = first[p-1-i-j]; for odd p, S+
    gains the middle coordinate, coupled by sqrt(2) first[m-i].  Both
    blocks are at most (p+1)/2 square; T and H are strided views.
    """
    p = first.shape[0]
    m = p // 2
    toe = sliding_window_view(np.concatenate([first[m - 1:0:-1], first[:m]]), m)[::-1]
    hank = sliding_window_view(first[::-1], m)[:m]
    s_plus = np.empty((p - m, p - m))
    np.add(toe, hank, out=s_plus[:m, :m])
    if p % 2:
        s_plus[m, :m] = s_plus[:m, m] = math.sqrt(2.0) * first[m:0:-1]
        s_plus[m, m] = first[0]
    return s_plus, toe - hank


@dataclass(frozen=True)
class PopulationDesign:
    """True parameters of the data-generating process in Sigma's eigenbasis.

    ``sd`` holds the square roots of Sigma's eigenvalues, the standard
    deviations of the rotated coordinates, which are independent.
    """

    mu1: np.ndarray
    mu2: np.ndarray
    sd: np.ndarray

    @property
    def p(self) -> int:
        return self.mu1.shape[0]

    def sample_group(self, mu: np.ndarray, rows: int, rng: np.random.Generator,
                     out: np.ndarray | None = None) -> np.ndarray:
        """``rows`` draws from N(mu, diag(sd^2)), written into ``out`` when given.

        The rows are drawn in blocks of :data:`BLOCK_ROWS`: block 0 from
        ``rng`` and block k >= 1 from ``rng``'s k-th spawned child, so a
        group of at most ``BLOCK_ROWS`` rows is exactly
        ``rng.standard_normal((rows, p)) * sd + mu``.  Each block is one
        task of :func:`eddr.threads.share`, so the bits are the same
        whichever thread draws it.
        """
        if out is None:
            out = np.empty((rows, self.p))
        if rows <= BLOCK_ROWS:
            return _draw(rng, out, self.sd, mu)
        starts = range(0, rows, BLOCK_ROWS)
        rngs = [rng, *rng.spawn(len(starts) - 1)]
        share([partial(_draw, block_rng, out[a:a + BLOCK_ROWS], self.sd, mu)
               for block_rng, a in zip(rngs, starts)])
        return out


def _draw(rng: np.random.Generator, z: np.ndarray, sd: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Fill the rows of ``z`` with draws from N(mu, diag(sd^2))."""
    rng.standard_normal(z.shape, out=z)
    z *= sd
    z += mu
    return z


def make_population(cfg: SimConfig) -> PopulationDesign:
    """The banded design of ``cfg`` in Sigma's eigenbasis, without forming Sigma.

    The eigenvalues are those of the two blocks of
    :func:`_centrosymmetric_blocks`, merged by a stable ascending sort.
    Only S+ needs eigenvectors: the direction 1 lies in its half, where
    it has coordinates sqrt(2) (1 on the middle coordinate of odd p), so
    mu1 is sqrt(lam) |x' 1| sqrt(5/p) on S+'s eigenvectors x and exactly 0
    on S-'s.  Taking the absolute value fixes each eigenvector's sign so
    that mu1 >= 0, whatever sign LAPACK returns.  The two solves run on one
    BLAS thread each, as two tasks of :func:`eddr.threads.share` with a
    helper thread when this process may use more than one core.  A diagonal
    Sigma (rho = 0 or bandwidth 0) needs no solver.  Raises
    :class:`NotPositiveDefiniteError` when the smallest eigenvalue is not
    positive.
    """
    p, m = cfg.p, cfg.p // 2
    first = _band_row(p, cfg.rho, cfg.bandwidth)
    scale = math.sqrt(DESIGN_SEPARATION / p)
    if not first[1:].any():
        return PopulationDesign(mu1=np.full(p, scale), mu2=np.zeros(p), sd=np.ones(p))
    s_plus, s_minus = _centrosymmetric_blocks(first)
    with one_blas_thread(helper=cores() > 1):
        (lam_plus, x), lam_minus = share([partial(np.linalg.eigh, s_plus),
                                          partial(np.linalg.eigvalsh, s_minus)])
    lam = np.concatenate([lam_plus, lam_minus])
    if not lam.min() > 0.0:
        raise NotPositiveDefiniteError(
            f"banded correlation matrix is not positive definite "
            f"(smallest eigenvalue {lam.min():g})"
        )
    ones_plus = np.full(p - m, math.sqrt(2.0))  # 1 in the basis of S+
    ones_plus[m:] = 1.0
    mu1 = np.zeros(p)
    mu1[:p - m] = np.sqrt(lam_plus) * np.abs(x.T @ ones_plus) * scale
    order = np.argsort(lam, kind="stable")
    return PopulationDesign(mu1=mu1[order], mu2=np.zeros(p), sd=np.sqrt(lam[order]))


class ErrorInputs(NamedTuple):
    """Per-trial ingredients of the exact conditional error."""

    u: float
    v: float
    bias: float

    @property
    def u_tilde(self) -> float:
        return self.u + self.bias


def error_inputs(summary: TwoSampleSummary, pop: PopulationDesign) -> ErrorInputs:
    """U, V and the trace bias entering the conditional-error formula."""
    d = summary.mean_diff
    u = float(d @ (summary.xbar1 - pop.mu1)) - 0.5 * float(summary.q0)
    scaled = pop.sd * d
    v = float(scaled @ scaled)
    return ErrorInputs(u=u, v=v, bias=summary.score_bias / 2.0)


def conditional_error(err: ErrorInputs, c: float) -> float:
    """Exact group-1 error probability of the rule with half-scale cut-off c."""
    return std_normal_cdf((err.u_tilde + c) / math.sqrt(err.v))


def run_trial(cfg: SimConfig, pop: PopulationDesign, rng: np.random.Generator,
              x: np.ndarray | None = None) -> TrialRecord:
    """One full trial: sample, calibrate, and evaluate the conditional error.

    ``x`` is an (n1 + n2) x p work matrix that the trial overwrites: its
    row blocks receive the two groups' draws, which are then centred in
    place.  :func:`_run_chunk` passes one matrix to all of its trials.

    Raises :class:`CalibrationInfeasibleError` when the drawn data do not
    admit the requested cut-off; the driver counts such trials separately.
    """
    if x is None:
        x = np.empty((cfg.n1 + cfg.n2, cfg.p))
    x1 = pop.sample_group(pop.mu1, cfg.n1, rng, out=x[:cfg.n1])
    x2 = pop.sample_group(pop.mu2, cfg.n2, rng, out=x[cfg.n1:])
    summary = pooled_summary(x1, x2, _stacked=x)
    res = calibrate(summary, cfg.request)
    # an extreme trial can underflow the error probability to 0.0 or 1.0 in
    # double precision; the mathematical value is strictly interior
    ce = _interior(conditional_error(error_inputs(summary, pop), res.c))
    return TrialRecord(cond_error=ce, cutoff=res.c, fell_back=res.fell_back)


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed & (2**64 - 1), index)))


def _run_chunk(cfg: SimConfig, pop: PopulationDesign, start: int, stop: int,
               processes: int = 1):
    """Records (None where infeasible) of trials start..stop-1, on one BLAS thread.

    A helper thread starts only when a group has more than ``BLOCK_ROWS``
    rows and each of the ``processes`` chunks running side by side can have
    two cores: on smaller designs, waking it costs more than sharing the
    trial's tasks saves.
    """
    # one resident work matrix: fresh per-trial arrays of this size can fall
    # to mmap and fault in their pages on every trial
    x = np.empty((cfg.n1 + cfg.n2, cfg.p))
    helps = max(cfg.n1, cfg.n2) > BLOCK_ROWS and cores() >= 2 * processes
    out = []
    with one_blas_thread(helper=helps):
        for i in range(start, stop):
            try:
                out.append(run_trial(cfg, pop, _trial_rng(cfg.seed, i), x))
            except CalibrationInfeasibleError:
                out.append(None)
    return out


@dataclass(frozen=True)
class SimResult:
    """Feasible trial records (in trial order) plus exclusion accounting."""

    records: tuple
    n_excluded: int

    @property
    def n_fell_back(self) -> int:
        return sum(1 for r in self.records if r.fell_back)


def pool_size(workers: int) -> int:
    """Most processes a run asked for ``workers`` starts: one per core this
    process may use. More only share the cores, and the records do not
    depend on the count."""
    return min(workers, cores())


def run_simulation(cfg: SimConfig, pop: PopulationDesign | None = None) -> SimResult:
    """Run ``cfg.reps`` independent trials, optionally across
    :func:`pool_size` processes.

    Fails with :class:`SimulationError` if more than 0.1% of the trials
    had to be excluded for calibration infeasibility.
    """
    if pop is None:
        pop = make_population(cfg)
    workers = pool_size(cfg.workers)
    if workers == 1 or cfg.reps < 4 * workers:
        raw = _run_chunk(cfg, pop, 0, cfg.reps)
    else:
        chunk = max(1, math.ceil(cfg.reps / (workers * 8)))
        bounds = [(s, min(s + chunk, cfg.reps)) for s in range(0, cfg.reps, chunk)]
        raw = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            tasks = [(cfg, pop, a, b, workers) for a, b in bounds]
            for part in pool.map(_run_chunk, *zip(*tasks)):
                raw.extend(part)
    records = tuple(r for r in raw if r is not None)
    n_excluded = cfg.reps - len(records)
    if n_excluded > MAX_EXCLUDED_FRACTION * cfg.reps:
        raise SimulationError(
            f"{n_excluded} of {cfg.reps} trials were calibration-infeasible "
            f"(> {MAX_EXCLUDED_FRACTION:.1%} allowed)"
        )
    return SimResult(records=records, n_excluded=n_excluded)


def _errors(records: Sequence[TrialRecord]) -> np.ndarray:
    if len(records) == 0:
        raise ValueError("need at least one trial record")
    return np.array([r.cond_error for r in records])


def attained_error_rate(records: Sequence[TrialRecord]) -> AggregateStat:
    """Mean conditional error across trials, with its Monte Carlo SE."""
    ce = _errors(records)
    se = ce.std(ddof=1) / math.sqrt(len(ce)) if len(ce) > 1 else math.nan
    return AggregateStat(value=float(ce.mean()), se=float(se))


def attained_confidence_level(records: Sequence[TrialRecord], eu: float) -> AggregateStat:
    """Fraction of trials whose conditional error stayed at or below eu."""
    ce = _errors(records)
    frac = float(np.mean(ce <= eu))
    se = math.sqrt(frac * (1.0 - frac) / len(ce))
    return AggregateStat(value=frac, se=se)


__all__ = [
    "SimConfig",
    "TrialRecord",
    "SimResult",
    "AggregateStat",
    "PopulationDesign",
    "band_sigma",
    "make_population",
    "error_inputs",
    "conditional_error",
    "run_trial",
    "run_simulation",
    "attained_error_rate",
    "attained_confidence_level",
    "DESIGN_SEPARATION",
]
