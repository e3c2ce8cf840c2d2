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
p-vectors.  A given seed's output therefore differs from versions that
sampled through a Cholesky factor of Sigma, though its law does not.

No test points are ever classified.  Aggregating the per-trial errors
gives the attained error rate (for expected-error calibration) and the
attained confidence level (for confidence calibration).

Reproducibility contract: trial i draws all of its randomness from a
substream derived from (seed, i), so results are bit-identical for any
worker count and any scheduling order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .calibration import DEFAULT_M2_ANCHOR, M2_ANCHORS, CutoffRequest, calibrate
from .core import Dims, TwoSampleSummary, _psd_eigh, cholesky, pooled_summary, std_normal_cdf
from .error_model import DEFAULT_LOGIT_VARIANCE, LOGIT_VARIANCE_CONVENTIONS
# not called here: the traced benchmark (perfbench/sims.py) wraps
# eddr.simulate.estimate_all by name
from .estimators import estimate_all  # noqa: F401
from .exceptions import CalibrationInfeasibleError, SimulationError

#: Separation between the group means on the squared-distance scale used
#: by the simulation design: mu1 is placed so that Sigma^{-1/2} mu1 has
#: squared norm 5 regardless of dimension, mu2 at the origin.
DESIGN_SEPARATION = 5.0

#: Largest tolerated fraction of trials lost to calibration infeasibility.
MAX_EXCLUDED_FRACTION = 1e-3


@dataclass(frozen=True)
class SimConfig:
    """Design and execution parameters of one simulation run."""

    p: int
    n1: int
    n2: int
    rho: float
    reps: int
    seed: int
    request: CutoffRequest
    bandwidth: int = 50
    workers: int = 1
    logit_variance: str = DEFAULT_LOGIT_VARIANCE
    anchor: str = DEFAULT_M2_ANCHOR

    def __post_init__(self):
        Dims(self.n1, self.n2, self.p)  # raises DimensionError for bad sizes
        if not abs(self.rho) < 1:
            raise ValueError("rho must satisfy |rho| < 1")
        if self.bandwidth < 0:
            raise ValueError("bandwidth must be nonnegative")
        if self.reps < 1:
            raise ValueError("reps must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.anchor not in M2_ANCHORS:
            raise ValueError(f"unknown anchor {self.anchor!r}")
        if self.logit_variance not in LOGIT_VARIANCE_CONVENTIONS:
            raise ValueError(f"unknown logit variance convention {self.logit_variance!r}")


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one feasible trial."""

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


def band_sigma(p: int, rho: float, bandwidth: int = 50) -> np.ndarray:
    """Correlation matrix with entries rho^|i-j| inside the band, 0 outside.

    Unit diagonal by construction; positive definiteness is verified by a
    Cholesky factorization.
    """
    if not abs(rho) < 1:
        raise ValueError("rho must satisfy |rho| < 1")
    first = np.zeros(p)
    k = np.arange(min(bandwidth, p - 1) + 1)
    first[k] = rho ** k.astype(float)
    first[0] = 1.0
    i = np.arange(p)
    sigma = first[np.abs(i[:, None] - i)]
    cholesky(sigma)  # raises NotPositiveDefiniteError on failure
    return sigma


def _eigen_design(sigma) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues ``lam`` and eigenvectors ``w`` of sigma, and mu1 in their basis.

    mu1 = sigma^{1/2} (5/p)^{1/2} 1 has coordinates sqrt(lam) * (w' 1) (5/p)^{1/2}
    in the eigenbasis.
    """
    lam, w = _psd_eigh(sigma)
    ones = np.full(lam.shape[0], math.sqrt(DESIGN_SEPARATION / lam.shape[0]))
    return lam, w, np.sqrt(lam) * (w.T @ ones)


def design_means(sigma) -> tuple[np.ndarray, np.ndarray]:
    """Group means with whitened separation sqrt(5/p) per coordinate.

    mu1 = sigma^{1/2} (5/p)^{1/2} 1, mu2 = 0; then |mu1 - mu2|^2 equals
    (5/p) 1' sigma 1.
    """
    _, w, mu1 = _eigen_design(sigma)
    return w @ mu1, np.zeros(mu1.shape[0])


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

    def sample_group(self, mu: np.ndarray, rows: int, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal((rows, self.p))
        z *= self.sd
        z += mu
        return z


def make_population(cfg: SimConfig) -> PopulationDesign:
    lam, _, mu1 = _eigen_design(band_sigma(cfg.p, cfg.rho, cfg.bandwidth))
    return PopulationDesign(mu1=mu1, mu2=np.zeros(cfg.p), sd=np.sqrt(lam))


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


def run_trial(cfg: SimConfig, pop: PopulationDesign, rng: np.random.Generator) -> TrialRecord:
    """One full trial: sample, calibrate, and evaluate the conditional error.

    Raises :class:`CalibrationInfeasibleError` when the drawn data do not
    admit the requested cut-off; the driver counts such trials separately.
    """
    x1 = pop.sample_group(pop.mu1, cfg.n1, rng)
    x2 = pop.sample_group(pop.mu2, cfg.n2, rng)
    summary = pooled_summary(x1, x2)
    res = calibrate(summary, cfg.request, logit_variance=cfg.logit_variance,
                    anchor=cfg.anchor).result
    ce = conditional_error(error_inputs(summary, pop), res.c)
    # an extreme trial can underflow the error probability to 0.0 or 1.0 in
    # double precision; the mathematical value is strictly interior
    if ce <= 0.0:
        ce = math.nextafter(0.0, 1.0)
    elif ce >= 1.0:
        ce = math.nextafter(1.0, 0.0)
    return TrialRecord(cond_error=ce, cutoff=res.c, fell_back=res.fell_back)


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed & (2**64 - 1), index)))


def _run_chunk(cfg: SimConfig, pop: PopulationDesign, start: int, stop: int):
    out = []
    for i in range(start, stop):
        try:
            out.append(run_trial(cfg, pop, _trial_rng(cfg.seed, i)))
        except CalibrationInfeasibleError:
            out.append(None)
    return out


@dataclass(frozen=True)
class SimResult:
    """Feasible trial records (in trial order) plus exclusion accounting."""

    config: SimConfig
    records: tuple
    n_excluded: int

    @property
    def n_fell_back(self) -> int:
        return sum(1 for r in self.records if r.fell_back)


def run_simulation(cfg: SimConfig, pop: PopulationDesign | None = None) -> SimResult:
    """Run ``cfg.reps`` independent trials, optionally across processes.

    Fails with :class:`SimulationError` if more than 0.1% of the trials
    had to be excluded for calibration infeasibility.
    """
    if pop is None:
        pop = make_population(cfg)
    if cfg.workers == 1 or cfg.reps < 4 * cfg.workers:
        raw = _run_chunk(cfg, pop, 0, cfg.reps)
    else:
        chunk = max(1, math.ceil(cfg.reps / (cfg.workers * 8)))
        bounds = [(s, min(s + chunk, cfg.reps)) for s in range(0, cfg.reps, chunk)]
        raw = []
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            for part in pool.map(_run_chunk, *zip(*[(cfg, pop, a, b) for a, b in bounds])):
                raw.extend(part)
    records = tuple(r for r in raw if r is not None)
    n_excluded = cfg.reps - len(records)
    if n_excluded > MAX_EXCLUDED_FRACTION * cfg.reps:
        raise SimulationError(
            f"{n_excluded} of {cfg.reps} trials were calibration-infeasible "
            f"(> {MAX_EXCLUDED_FRACTION:.1%} allowed)"
        )
    return SimResult(config=cfg, records=records, n_excluded=n_excluded)


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
    "design_means",
    "make_population",
    "error_inputs",
    "conditional_error",
    "run_trial",
    "run_simulation",
    "attained_error_rate",
    "attained_confidence_level",
    "DESIGN_SEPARATION",
]
