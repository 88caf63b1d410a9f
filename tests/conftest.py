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


def dense_noise_routing(scen, nodes):
    """Independent reference for the noise routing: G (len(nodes) n, E n) maps
    the stacked per-edge increments dW_e into the stacked states of ``nodes``;
    edge e = (i, j) feeds w_ij K2 o rho_e into the last component of node i."""
    n = scen.plant.n
    K2 = scen.plant.K2[0]
    G = np.zeros((len(nodes) * n, len(scen.noise.edges) * n))
    for e, ((i, j), rho) in enumerate(zip(scen.noise.edges, scen.noise.rho)):
        if i in nodes:
            G[list(nodes).index(i) * n + n - 1, e * n:(e + 1) * n] = scen.graph.weights[i, j] * K2 * rho
    return G


def fig1_weights():
    w = np.zeros((5, 5))
    w[1, 0] = 1.0
    w[2, 0] = 1.0
    w[2, 4] = 1.0
    w[3, 1] = 2.0
    w[4, 1] = 1.0
    w[4, 3] = 1.0
    return w
