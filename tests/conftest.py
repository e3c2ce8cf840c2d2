import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)


def random_spd(p, rng, cond=1.0):
    r = rng.standard_normal((p, p))
    return r @ r.T / p + cond * np.eye(p)


def random_orthogonal(p, rng):
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    return q * np.sign(np.diag(r))


@pytest.fixture
def two_cores(monkeypatch):
    """Let ``run_simulation`` start a real pool of two processes on any host,
    one core included; returns the size of each pool it starts."""
    import eddr.simulate as sim

    real_cores, started = sim.cores, []

    class Pool(sim.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(sim, "cores", lambda: max(2, real_cores()))
    monkeypatch.setattr(sim, "ProcessPoolExecutor", Pool)
    return started
