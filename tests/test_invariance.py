"""Orthogonal invariance: rotating the data leaves every statistic the rule reads unchanged.

The Euclidean rule, its trace bias, the power statistics ``t_k = tr(S^k)``
and ``q_k = d'S^k d``, the estimates and the cut-offs are all functions of
inner products, so they are unchanged when every observation ``x`` and the
query become ``Q'x`` for an orthogonal ``Q``.  This is the law that lets
:mod:`eddr.simulate` draw its trials in Sigma's eigenbasis.
"""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eddr.calibration import CutoffRequest, calibrate
from eddr.core import discriminant_score, pooled_summary
from eddr.estimators import estimate_all
from eddr.exceptions import EddrError

from conftest import random_orthogonal

REL = 1e-9
STATS = ("t1", "t2", "t3", "t4", "q0", "q1", "q2", "q3")
REQUESTS = (CutoffRequest.m1(0.1), CutoffRequest.m2_logit(0.2, 0.1))


@st.composite
def designs(draw):
    """(seed, n1, n2, p) with N = n1 + n2 drawn below p (where N >= 4 allows it) or above."""
    p = draw(st.sampled_from((3, 10, 40, 200)))
    wide = p > 4 and draw(st.booleans())
    n_total = draw(st.integers(4, p - 1) if wide else st.integers(p + 1, p + 40))
    n1 = draw(st.integers(2, n_total - 2))
    return draw(st.integers(0, 2**32 - 1)), n1, n_total - n1, p


def outcome(fn):
    """``fn()``'s value, or the type of the exception it raised."""
    try:
        return fn()
    except EddrError as exc:
        return type(exc)


def quantities(x1, x2, query):
    """Everything the rule computes from the data, keyed by name."""
    summary = pooled_summary(x1, x2)
    out = {name: getattr(summary, name) for name in STATS}
    out["score"] = discriminant_score(query, summary)
    estimates = outcome(lambda: estimate_all(summary))
    if isinstance(estimates, type):
        out["estimate_all"] = estimates
    else:
        out.update(asdict(estimates))
    for request in REQUESTS:
        out[request.variant.value] = outcome(lambda: calibrate(summary, request).c)
    return out


@settings(derandomize=True, deadline=None, max_examples=80)
@given(designs())
@example((173, 7, 4, 40))  # M2 calibration infeasible
@example((502, 8, 3, 200))  # M2 calibration infeasible
def test_rotation_leaves_the_rule_unchanged(design):
    seed, n1, n2, p = design
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal((n1, p)) + np.sqrt(5.0 / p)
    x2 = rng.standard_normal((n2, p))
    query = rng.standard_normal(p)
    q = random_orthogonal(p, rng)
    base = quantities(x1, x2, query)
    rotated = quantities(x1 @ q, x2 @ q, query @ q)
    assert base.keys() == rotated.keys()
    for name, want in base.items():
        got = rotated[name]
        if isinstance(want, type) or isinstance(got, type):
            assert got is want, name
        else:
            assert got == pytest.approx(want, rel=REL), name
