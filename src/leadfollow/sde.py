"""Euler-Maruyama simulation of the noisy consensus closed loop.

Two simulators share one noise-increment convention:

* ``simulate_full`` integrates every agent's state under the relative-state
  protocol with per-edge measurement noise.  In the leader-following case the
  leader is autonomous and noise-free, so its linear dynamics are advanced with
  the exact matrix-exponential propagator; followers take Euler-Maruyama steps.
* ``simulate_reduced`` integrates the N-dimensional filtered error
  Xhat = (I (x) K2)(X_F - 1 (x) x0), whose drift is -Gains(t) L2 Xhat.

Both consume Brownian increments from the same counter-based Philox stream in
the same canonical order (step-major, then edges sorted row-major, then state
component), so a shared (scenario, seed) pair yields pathwise-consistent noise.
Additive noise makes plain Euler-Maruyama strong order 1.0; nothing higher is
warranted at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrate import snap_to_grid
from .plant import leader_closed_loop

BLOCK_STEPS = 512


class SimulationError(RuntimeError):
    pass


class NonFiniteError(SimulationError):
    pass


@dataclass(frozen=True)
class NoiseModel:
    """Per-edge diagonal noise intensities; edges mirror the digraph."""

    edges: tuple[tuple[int, int], ...]  # (receiver, sender), row-major order
    rho: np.ndarray                     # (E, n) diagonal intensity entries

    def __post_init__(self):
        if not np.all(np.isfinite(self.rho)):
            raise ValueError("noise intensities must be finite")
        if self.rho.shape[0] != len(self.edges):
            raise ValueError("one intensity row required per edge")


def uniform_noise(graph, n: int, rho: float) -> NoiseModel:
    """Same scalar intensity on every component of every existing edge."""
    edges = tuple(graph.edges())
    arr = np.full((len(edges), n), float(rho))
    arr.setflags(write=False)
    return NoiseModel(edges=edges, rho=arr)


@dataclass(frozen=True)
class Trajectory:
    """Sampled path of one simulation run with its reproduction fingerprint."""

    times: np.ndarray    # (S,), uniform subgrid of the integration grid
    states: np.ndarray   # full: (S, N+1, n); reduced: (S, N)
    dt: float
    seed: int
    scenario_hash: str
    kind: str            # "full" | "reduced"


def _noise_rng(seed: int) -> np.random.Generator:
    # Philox is counter-based: the stream is a pure function of the key, so
    # identical (scenario, seed) pairs replay bit-identically anywhere.
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _record_indices(scen, record_times) -> np.ndarray:
    if record_times is None:
        record_times = scen.sample_times
    return snap_to_grid(record_times, scen.dt, scen.steps)[0]


def noise_channels(scen, nodes):
    """Noise routing into ``nodes``: one channel per directed edge into them.

    Returns (ke, Winc).  Row e of ``ke`` (E, n) folds the edge weight and the
    K2 row into the projection of channel e's n-dimensional increment onto its
    receiver's last component; ``Winc`` (len(nodes), E) sums the channels into
    each receiver.
    """
    pos = {node: p for p, node in enumerate(nodes)}
    K2 = scen.plant.K2[0]
    rows = [(k, i, j) for k, (i, j) in enumerate(scen.noise.edges) if i in pos]
    ke = np.empty((len(rows), scen.plant.n))
    Winc = np.zeros((len(nodes), len(rows)))
    for e, (k, i, j) in enumerate(rows):
        ke[e] = scen.graph.weights[i, j] * K2 * scen.noise.rho[k]
        Winc[pos[i], e] = 1.0
    return ke, Winc


class _ClosedLoop:
    """Precomputed constant matrices for one scenario."""

    def __init__(self, scen):
        plant = scen.plant
        self.n = plant.n
        self.dt = scen.dt
        self.steps = scen.steps
        self.sim_nodes = scen.sim_nodes
        self.M = len(self.sim_nodes)
        self.drift = scen.drift()
        self.ke, self.Winc = noise_channels(scen, self.sim_nodes)
        self.E = self.ke.shape[0]

        # Per-step gains of the simulated agents, steps+1 rows.
        self.gains = scen.profile.gain_all(np.arange(self.steps + 1) * self.dt)

        if scen.leaderless:
            self.x0_path = None
            self.forcing = None
        else:
            lead = scen.graph.leader_index
            self.x0_path = leader_closed_loop(
                plant, scen.init_states[lead], scen.t_end, self.dt
            )[1]
            w0 = self.x0_path @ plant.K2[0]
            # Drift term -a_i(t) L1_i K2 x0(t) entering each follower's last component.
            self.forcing = -(self.gains * scen.lap.L1.T) * w0[:, None]

        self.X0 = scen.init_states[self.sim_nodes].reshape(-1)


def _run_full(scen, seed: int, trials: int, record_idx: np.ndarray) -> np.ndarray:
    """Batched Euler-Maruyama paths; returns (trials, S, node_count, n)."""
    cl = _ClosedLoop(scen)
    n, M, E = cl.n, cl.M, cl.E
    dt = cl.dt
    sqrt_dt = np.sqrt(dt)
    rng = _noise_rng(seed)
    wanted = snap_to_grid(record_idx * dt, dt, cl.steps)[1]
    out = np.empty((trials, record_idx.size, scen.graph.node_count, n))

    X = np.tile(cl.X0, (trials, 1))

    def store(global_k):
        s_i = wanted[global_k]
        if s_i < 0:
            return
        out[:, s_i, cl.sim_nodes, :] = X.reshape(trials, M, n)
        if cl.x0_path is not None:
            out[:, s_i, scen.graph.leader_index, :] = cl.x0_path[global_k]

    store(0)
    for k0 in range(0, cl.steps, BLOCK_STEPS):
        k1 = min(k0 + BLOCK_STEPS, cl.steps)
        nb = k1 - k0
        a_b = cl.gains[k0:k1]
        Fb = cl.drift(a_b)
        if E:
            dW = rng.normal(0.0, sqrt_dt, size=(trials, nb, E, n))
            s = np.einsum("tbeh,eh->tbe", dW, cl.ke)
            nv = np.einsum("tbe,ie->tbi", s, cl.Winc) * a_b[None]
        else:
            nv = np.zeros((trials, nb, M))
        fb = cl.forcing[k0:k1] if cl.forcing is not None else None
        for k in range(nb):
            X = X + dt * (X @ Fb[k].T)
            incr = nv[:, k, :] if fb is None else dt * fb[k] + nv[:, k, :]
            X[:, cl.drift.last] += incr
            store(k0 + k + 1)
        if not np.all(np.isfinite(X)):
            raise NonFiniteError(f"state overflowed near t = {k1 * dt:.6g}")
    return out


def _run_reduced(scen, seed: int, trials: int, record_idx: np.ndarray) -> np.ndarray:
    """Batched paths of the filtered error dynamics; returns (trials, S, N)."""
    if scen.leaderless:
        raise SimulationError("the reduced error dynamics require a leader")
    cl = _ClosedLoop(scen)
    n, M, E = cl.n, cl.M, cl.E
    dt = cl.dt
    sqrt_dt = np.sqrt(dt)
    rng = _noise_rng(seed)
    wanted = snap_to_grid(record_idx * dt, dt, cl.steps)[1]
    out = np.empty((trials, record_idx.size, M))

    K2 = scen.plant.K2[0]
    err0 = scen.init_states[cl.sim_nodes] - scen.init_states[scen.graph.leader_index]
    Xh = np.tile(err0 @ K2, (trials, 1))
    if wanted[0] >= 0:
        out[:, wanted[0], :] = Xh
    L2T = scen.lap.L2.T
    for k0 in range(0, cl.steps, BLOCK_STEPS):
        k1 = min(k0 + BLOCK_STEPS, cl.steps)
        nb = k1 - k0
        a_b = cl.gains[k0:k1]
        if E:
            dW = rng.normal(0.0, sqrt_dt, size=(trials, nb, E, n))
            s = np.einsum("tbeh,eh->tbe", dW, cl.ke)
            nv = np.einsum("tbe,ie->tbi", s, cl.Winc) * a_b[None]
        else:
            nv = np.zeros((trials, nb, M))
        for k in range(nb):
            Xh = Xh - dt * (a_b[k] * (Xh @ L2T)) + nv[:, k, :]
            s_i = wanted[k0 + k + 1]
            if s_i >= 0:
                out[:, s_i, :] = Xh
        if not np.all(np.isfinite(Xh)):
            raise NonFiniteError(f"state overflowed near t = {k1 * dt:.6g}")
    return out


def simulate_full(scen, seed: int, record_times=None) -> Trajectory:
    """One full-system path, sampled at ``record_times`` (default scenario grid)."""
    record_idx = _record_indices(scen, record_times)
    states = _run_full(scen, seed, 1, record_idx)[0]
    return Trajectory(
        times=record_idx * scen.dt, states=states, dt=scen.dt, seed=seed,
        scenario_hash=scen.fingerprint, kind="full",
    )


def simulate_reduced(scen, seed: int, record_times=None) -> Trajectory:
    """One path of the reduced error dynamics, noise-consistent with simulate_full."""
    record_idx = _record_indices(scen, record_times)
    states = _run_reduced(scen, seed, 1, record_idx)[0]
    return Trajectory(
        times=record_idx * scen.dt, states=states, dt=scen.dt, seed=seed,
        scenario_hash=scen.fingerprint, kind="reduced",
    )


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """CSV export with one row per sample per state component."""
    with open(path, "w") as fh:
        fh.write("t,node,component,value\n")
        states = traj.states
        if states.ndim == 2:  # reduced: one scalar per follower
            states = states[:, :, None]
        for s_i, t in enumerate(traj.times):
            for node in range(states.shape[1]):
                for comp in range(states.shape[2]):
                    fh.write(f"{t:.17g},{node},{comp},{states[s_i, node, comp]:.17g}\n")
