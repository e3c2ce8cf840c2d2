"""Self-checks of the closed-form Wishart and quadratic-form moments.

Two suites:

* the *exact* suite evaluates every moment kernel at p = 1 with unit
  scale and weights, in pure integer arithmetic, and demands equality
  with the chi-square moment prod_{k<m}(n + 2k) for each requested n;
* the *mc* suite draws Wishart matrices (and standard normal vectors)
  and requires every closed form to sit within 5 Monte Carlo standard
  errors of the empirical mean.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import cholesky
from .wishart import (
    _MOMENT_KERNELS,
    MOMENT_POWERS,
    MomentQuery,
    TraceInvariants,
    _sample_wishart_batch,
    all_moments,
    chi_square_moment,
    quad_moment_mean,
    quad_moment_product,
)


#: Draws per Wishart batch of the mc suite.
_BATCH = 20_000

#: Largest |mean - exact| of the mc suite, in Monte Carlo standard errors.
SE_MULTIPLE = 5.0


class VerifyRow(NamedTuple):
    name: str
    passed: bool
    detail: str


def _unit_invariants() -> TraceInvariants:
    one = 1
    m = {key: one for key in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1)]}
    return TraceInvariants(c1=one, c2=one, c3=one, c4=one,
                           sa=(one,) * 6, sb=(one,) * 6, m=m)


def scalar_reduction_suite(n_max: int) -> list[VerifyRow]:
    """Integer-exact p = 1 reduction of all seven moments for n = 1..n_max."""
    inv = _unit_invariants()
    rows = []
    for name, kernel in _MOMENT_KERNELS.items():
        power = MOMENT_POWERS[name]
        bad = [n for n in range(1, n_max + 1) if kernel(n, inv) != chi_square_moment(n, power)]
        if bad:
            detail = f"mismatch at n={bad} (chi-square power {power})"
        else:
            detail = f"equals chi-square moment of order {power} for n=1..{n_max}"
        rows.append(VerifyRow(name=f"moment_{name}", passed=not bad, detail=detail))
    return rows


def _random_query(p: int, n: int, rng: np.random.Generator) -> MomentQuery:
    r = rng.standard_normal((p, p))
    sigma = r @ r.T / p + np.eye(p)
    a = rng.standard_normal((p, p))
    a = (a + a.T) / 2.0
    b = rng.standard_normal((p, p))
    b = (b + b.T) / 2.0
    return MomentQuery(n=n, sigma=sigma, a=a, b=b)


def _wishart_statistics(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> dict:
    w2 = w @ w
    w3 = w2 @ w
    aw, bw = a @ w, b @ w
    aw2, bw2 = a @ w2, b @ w2
    aw3, bw3 = a @ w3, b @ w3
    tr = lambda x: np.trace(x, axis1=-2, axis2=-1)
    return {
        "moment_i": tr(aw) * tr(bw),
        "moment_ii": np.einsum("bij,bji->b", aw, bw),
        "moment_iii": tr(aw3),
        "moment_iv": tr(aw2) * tr(bw2),
        "moment_v": np.einsum("bij,bji->b", aw2, bw2),
        "moment_vi": tr(aw3) * tr(bw3),
        "moment_vii": np.einsum("bij,bji->b", aw3, bw3),
    }


def mc_moment_suite(p: int, n: int, draws: int, seed: int) -> list[VerifyRow]:
    """All seven Wishart moments and both quadratic-form moments vs Monte Carlo."""
    rng = np.random.default_rng(seed)
    q = _random_query(p, n, rng)
    targets = {f"moment_{k}": v for k, v in all_moments(q).items()}
    targets["quad_mean"] = quad_moment_mean(q.a)
    targets["quad_product"] = quad_moment_product(q.a, q.b)
    chol_l = cholesky(q.sigma)
    sums = dict.fromkeys(targets, 0.0)
    sq = dict.fromkeys(targets, 0.0)
    done = 0
    while done < draws:
        m = min(_BATCH, draws - done)
        w = _sample_wishart_batch(q.n, chol_l, rng, m)
        stats = _wishart_statistics(w, q.a, q.b)
        x = rng.standard_normal((m, p))
        qa = np.einsum("bi,ij,bj->b", x, q.a, x)
        qb = np.einsum("bi,ij,bj->b", x, q.b, x)
        stats["quad_mean"] = qa
        stats["quad_product"] = qa * qb
        for k, vals in stats.items():
            sums[k] += float(vals.sum())
            sq[k] += float((vals * vals).sum())
        done += m
    rows = []
    for k, target in targets.items():
        mean = sums[k] / draws
        var = max(0.0, (sq[k] - sums[k] ** 2 / draws) / (draws - 1))
        se = math.sqrt(var / draws)
        z = abs(mean - target) / se if se > 0 else math.inf
        rows.append(
            VerifyRow(
                name=k,
                passed=z <= SE_MULTIPLE,
                detail=f"mc={mean:.6g} exact={target:.6g} |z|={z:.2f} (draws={draws})",
            )
        )
    return rows
