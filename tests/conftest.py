import numpy as np
import pytest

import leadfollow as lf


@pytest.fixture(scope="session")
def fig1():
    return lf.load_preset("fig1")


@pytest.fixture(scope="session")
def fig2():
    return lf.load_preset("fig2")


@pytest.fixture(scope="session")
def fig1_oracle(fig1):
    """Exact moment series for the bundled leader-following scenario."""
    return lf.evolve_moments(fig1)


@pytest.fixture(scope="session")
def fig1_mc_timed(fig1):
    """Full 500-trial Monte Carlo series with its wall-clock runtime; shared
    because this run dominates the suite's cost."""
    import time
    start = time.perf_counter()
    series = lf.monte_carlo_moments(fig1)
    return series, time.perf_counter() - start


@pytest.fixture(scope="session")
def fig1_mc(fig1_mc_timed):
    return fig1_mc_timed[0]


@pytest.fixture(scope="session")
def fig1_constants(fig1):
    return lf.rate_constants(fig1.profile, fig1.lap.L2)


def dense_drift(plant, L, a):
    """Independent reference for the closed-loop drift: the dense Kronecker form
    F(a) = I (x) (A + B K1) - diag(a) L (x) B K2."""
    return np.kron(np.eye(L.shape[0]), plant.closed_loop_A) - np.kron(
        np.diag(a) @ L, plant.B @ plant.K2
    )


def fig1_weights():
    w = np.zeros((5, 5))
    w[1, 0] = 1.0
    w[2, 0] = 1.0
    w[2, 4] = 1.0
    w[3, 1] = 2.0
    w[4, 1] = 1.0
    w[4, 3] = 1.0
    return w
