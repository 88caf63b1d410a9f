import json
import os

import numpy as np
import pytest

import leadfollow as lf
from leadfollow import moments
from leadfollow.scenario import scenario_from_dict


@pytest.fixture(autouse=True)
def no_child_left():
    """No test may leave a child process behind, failing or not: one-trial
    paths and trial batches fork their workers."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def noiseless(scen, **overrides):
    """``scen.with_overrides(**overrides)`` with every noise intensity rho 0."""
    raw = json.loads(scen.with_overrides(**overrides).raw_json)
    raw["noise"] = {"rho": 0.0}
    return scenario_from_dict(raw)


def dense_drift(plant, L, a):
    """Independent reference for the closed-loop drift: the dense Kronecker form
    F(a) = I (x) (A + B K1) - diag(a) L (x) B K2."""
    return np.kron(np.eye(L.shape[0]), plant.closed_loop_A) - np.kron(
        np.diag(a) @ L, plant.B @ plant.K2
    )


def rk4_reference(f, y0, inputs, dt, slot):
    """Independent reference for ``integrate.rk4_path``: classical RK4 for
    y' = f(u, y), calling f once per stage, with ``inputs[2k]``,
    ``inputs[2k + 1]`` and ``inputs[2k + 2]`` the input at the start, midpoint
    and end of step k, ``dt`` the step length or one length per step, and the
    state at grid point k stored as sample ``slot[k]`` unless that is -1."""
    y = np.array(y0, dtype=complex if np.iscomplexobj(y0) else float)
    states = np.empty((int(slot.max()) + 1,) + y.shape, dtype=y.dtype)
    if slot[0] >= 0:
        states[slot[0]] = y
    for k, h in enumerate(np.broadcast_to(dt, (slot.size - 1,))):
        u0, uh, u1 = inputs[2 * k], inputs[2 * k + 1], inputs[2 * k + 2]
        k1 = f(u0, y)
        k2 = f(uh, y + 0.5 * h * k1)
        k3 = f(uh, y + 0.5 * h * k2)
        k4 = f(u1, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if slot[k + 1] >= 0:
            states[slot[k + 1]] = y
    return states


def reference_moments(scen):
    """Independent reference for the moment oracle: ``rk4_reference`` on the
    moment ODEs m' = F m, P' = F P + P F^T + Ga Ga^T of the state
    (m, vec P) on the oracle's grid, with F the dense Kronecker drift and Ga
    the dense noise routing scaled by each receiver's gain.  Returns
    (mean (S, N, n), mse (S, N))."""
    fol = scen.graph.follower_indices
    N, n = len(fol), scen.plant.n
    D = N * n
    base = dense_drift(scen.plant, scen.lap.L2, np.zeros(N))
    coupling = base - dense_drift(scen.plant, scen.lap.L2, np.ones(N))
    GG = dense_noise_routing(scen, fol)
    GG = GG @ GG.T

    def deriv(a, y):
        a_rows = np.repeat(a, n)
        F = base - a_rows[:, None] * coupling
        P = y[D:].reshape(D, D)
        dP = F @ P + P @ F.T + a_rows[:, None] * GG * a_rows
        return np.concatenate([F @ y[:D], dP.ravel()])

    t, slot = moments.step_grid(scen.sample_times, moments.max_step(scen))
    h = np.diff(t)
    gains = scen.profile.gain_all(np.append(np.column_stack([t[:-1], t[:-1] + 0.5 * h]), t[-1]))
    m0 = (scen.init_states[fol] - scen.init_states[scen.graph.leader_index]).reshape(-1)
    y = rk4_reference(deriv, np.concatenate([m0, np.zeros(D * D)]), gains, h, slot)
    mean = y[:, :D].reshape(-1, N, n)
    P = y[:, D:].reshape(-1, D, D)
    mse = (mean ** 2).sum(axis=2) + np.einsum("sii->si", P).reshape(-1, N, n).sum(axis=2)
    return mean, mse


def edge_noise(scen):
    """(receiver, sender, rho) of every edge the noise section names, rho of
    shape (n,), read from the scenario document itself, independently of
    ``SimScenario.noise_rate``; in row-major order for a single ``rho``."""
    raw = json.loads(scen.raw_json)
    n = scen.plant.n
    if "rho" in raw["noise"]:
        rows, cols = np.nonzero(np.asarray(raw["graph"]["weights"], dtype=float))
        return [(int(i), int(j), np.full(n, float(raw["noise"]["rho"])))
                for i, j in zip(rows, cols)]
    return [(int(e["to"]), int(e["from"]),
             np.broadcast_to(np.asarray(e["rho"], dtype=float), (n,)))
            for e in raw["noise"]["edges"]]


def dense_noise_routing(scen, nodes):
    """Independent reference for the noise routing: G (len(nodes) n, E n) maps
    the stacked per-edge increments dW_e of the E edges of ``edge_noise`` into
    the stacked states of ``nodes``; edge e = (i, j) feeds w_ij K2 o rho_e into
    the last component of node i."""
    n = scen.plant.n
    K2 = scen.plant.K2[0]
    edges = edge_noise(scen)
    G = np.zeros((len(nodes) * n, len(edges) * n))
    for e, (i, j, rho) in enumerate(edges):
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
