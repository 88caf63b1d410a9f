"""Euler-Maruyama simulation of the noisy consensus closed loop.

Two simulators share one noise convention:

* ``simulate_full`` integrates every agent's state under the relative-state
  protocol with per-edge measurement noise.  In the leader-following case the
  leader is autonomous and noise-free, so its linear dynamics are advanced with
  the exact matrix-exponential propagator; followers take Euler-Maruyama steps.
* ``simulate_reduced`` integrates the N-dimensional filtered error
  Xhat = (I (x) K2)(X_F - 1 (x) x0), whose drift is -Gains(t) L2 Xhat.

Noise reaches simulated agent i only through the last component of its
state, as a_i(t) sum_j w_ij K2 (rho_ij o dW_ij).  Each edge has one receiver,
so in law this is a_i(t) sqrt(q_i) dB_i, with the per-receiver variance rate
q_i of ``noise_channels``: the engines draw one standard normal per simulated
agent per step and nothing else.  Trial t draws from its own counter-based
stream, Philox keyed on [base_seed, t], step-major (all agents of step k, then
step k + 1), so a trial's path depends neither on BLOCK_STEPS nor on the trial
count (a one-trial run differs by round-off only: BLAS takes a matrix-vector
path for one row).  Both engines consume the same increments, so a shared
(scenario, seed) pair yields pathwise-consistent paths.

Each step is X <- S_k X plus the increment (noise and, for followers, the
leader forcing) on the last components, with S_k = I + dt F(a_k) built for a
block of steps at once.  Additive noise makes plain Euler-Maruyama strong
order 1.0; nothing higher is warranted at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plant import leader_closed_loop

BLOCK_STEPS = 512


class SimulationError(RuntimeError):
    pass


class NonFiniteError(SimulationError):
    """The state left the finite range: first at step time ``t``, in ``trials``."""

    def __init__(self, t: float, trials):
        self.t = t
        self.trials = tuple(int(i) for i in trials)
        shown = ", ".join(map(str, self.trials[:10])) + (", ..." if len(self.trials) > 10 else "")
        super().__init__(f"state became non-finite at t = {t:.6g} "
                         f"in {len(self.trials)} trial(s): {shown}")


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


@dataclass(frozen=True)
class Trajectory:
    """Sampled path of one simulation run."""

    times: np.ndarray    # (S,), the scenario's sample times
    states: np.ndarray   # full: (S, N+1, n); reduced: (S, N)


def _trial_streams(seed: int, trials: int) -> list[np.random.Generator]:
    # Philox is counter-based: trial t's stream is a pure function of its key
    # [seed, t], whatever the trial count or the block size.
    return [np.random.Generator(np.random.Philox(key=np.array([seed, t], dtype=np.uint64)))
            for t in range(trials)]


def noise_channels(scen, nodes) -> np.ndarray:
    """Per-receiver noise variance rate q of ``nodes``, shape (len(nodes),).

    q_i = sum_j w_ij^2 |K2 o rho_ij|^2 over the edges j -> i: the noise
    a_i sum_j w_ij K2 (rho_ij o dW_ij) that reaches node i's last state
    component has the law of a_i sqrt(q_i) dB_i.
    """
    pos = {node: p for p, node in enumerate(nodes)}
    K2 = scen.plant.K2[0]
    rows = [(k, i, j) for k, (i, j) in enumerate(scen.noise.edges) if i in pos]
    ke = np.empty((len(rows), scen.plant.n))
    Winc = np.zeros((len(nodes), len(rows)))
    for e, (k, i, j) in enumerate(rows):
        ke[e] = scen.graph.weights[i, j] * K2 * scen.noise.rho[k]
        Winc[pos[i], e] = 1.0
    return Winc @ (ke ** 2).sum(axis=1)


class _Noise:
    """Per-trial streams drawn one block of steps at a time, shared by both engines."""

    def __init__(self, seed: int, trials: int, scale: np.ndarray):
        self.streams = _trial_streams(seed, trials)
        self.scale = scale  # (M,) sqrt(dt q): the increment's standard deviation at gain 1
        self.buf = np.empty((trials, BLOCK_STEPS, scale.size))

    def block(self, a_b: np.ndarray) -> np.ndarray:
        """Increments (trials, nb, M) of the next nb = len(a_b) steps; trial t
        fills its slab step-major from its own stream."""
        buf = self.buf[:, :a_b.shape[0]]
        if not self.scale.any():
            buf[...] = 0.0
            return buf
        for stream, slab in zip(self.streams, buf):
            stream.standard_normal(out=slab)
        buf *= self.scale * a_b
        return buf


class _ClosedLoop:
    """Precomputed constant matrices for one scenario."""

    def __init__(self, scen):
        self.n = scen.plant.n
        self.dt = scen.dt
        self.steps = scen.steps
        self.sim_nodes = scen.sim_nodes
        self.M = len(self.sim_nodes)
        self.drift = scen.drift()
        self.noise_scale = np.sqrt(self.dt) * np.sqrt(noise_channels(scen, self.sim_nodes))

        # Per-step gains of the simulated agents, steps+1 rows.
        self.gains = scen.profile.gain_all(np.arange(self.steps + 1) * self.dt)
        self.X0 = scen.init_states[self.sim_nodes].reshape(-1)

    def transitions(self, a_b: np.ndarray) -> np.ndarray:
        """Euler-Maruyama transitions S_k = I + dt F(a_k), shape (nb, Mn, Mn)."""
        S = self.drift(a_b)
        S *= self.dt
        S += np.eye(S.shape[-1])
        return S


def _euler_maruyama(X, block, tail, steps, dt, wanted, store) -> None:
    """Advance the batch X (trials, D) by ``steps`` steps X <- X S_k^T, then
    tail(X) += v_k, one block of BLOCK_STEPS steps at a time.

    ``block(k0, k1)`` returns the block's transitions S (nb, D, D) and
    increments v (trials, nb, M); ``tail`` views the M noisy components of a
    (trials, D) array; ``store(s_i, k, X)`` records X after step k as sample s_i.
    """
    wanted = wanted.tolist()
    if wanted[0] >= 0:
        store(wanted[0], 0, X)
    bufs = (X, np.empty_like(X))
    tails = (tail(bufs[0]), tail(bufs[1]))
    cur = 0
    for k0 in range(0, steps, BLOCK_STEPS):
        k1 = min(k0 + BLOCK_STEPS, steps)
        S, v = block(k0, k1)
        start = bufs[cur].copy()
        for k in range(k1 - k0):
            nxt = 1 - cur
            np.matmul(bufs[cur], S[k].T, out=bufs[nxt])
            np.add(tails[nxt], v[:, k], out=tails[nxt])
            cur = nxt
            s_i = wanted[k0 + k + 1]
            if s_i >= 0:
                store(s_i, k0 + k + 1, bufs[cur])
        if not np.isfinite(bufs[cur]).all():
            raise _first_nonfinite(start, S, v, tail, k0, dt)


def _first_nonfinite(X, S, v, tail, k0, dt) -> NonFiniteError:
    """Replay a failed block step by step from its start state X, to name the
    first step that left the finite range and the trials it did so in."""
    for k in range(S.shape[0]):
        X = X @ S[k].T
        noisy = tail(X)
        noisy += v[:, k]
        bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
        if bad.size:
            break
    return NonFiniteError((k0 + k + 1) * dt, bad)


def _run_full(scen, seed: int, trials: int) -> np.ndarray:
    """Batched Euler-Maruyama paths at the S sample times; returns
    (trials, S, node_count, n)."""
    cl = _ClosedLoop(scen)
    n, M, dt = cl.n, cl.M, cl.dt
    noise = _Noise(seed, trials, cl.noise_scale)
    idx, wanted = scen.sample_grid()
    out = np.empty((trials, idx.size, scen.graph.node_count, n))
    lead = scen.graph.leader_index
    x0_path = forcing = None
    if not scen.leaderless:
        x0_path = leader_closed_loop(scen.plant, scen.init_states[lead], scen.t_end, dt)
        w0 = x0_path @ scen.plant.K2[0]
        # Drift term -a_i(t) L1_i K2 x0(t) entering each follower's last component.
        forcing = -(cl.gains * scen.lap.L1.T) * w0[:, None]

    def block(k0, k1):
        a_b = cl.gains[k0:k1]
        v = noise.block(a_b)
        if forcing is not None:
            v += dt * forcing[k0:k1]
        return cl.transitions(a_b), v

    def store(s_i, k, X):
        out[:, s_i, cl.sim_nodes, :] = X.reshape(trials, M, n)
        if x0_path is not None:
            out[:, s_i, lead, :] = x0_path[k]

    _euler_maruyama(np.tile(cl.X0, (trials, 1)), block,
                    lambda X: X.reshape(trials, M, n)[:, :, -1],
                    cl.steps, dt, wanted, store)
    return out


def _run_reduced(scen, seed: int, trials: int) -> np.ndarray:
    """Batched paths of the filtered error dynamics at the S sample times;
    returns (trials, S, N)."""
    if scen.leaderless:
        raise SimulationError("the reduced error dynamics require a leader")
    cl = _ClosedLoop(scen)
    dt = cl.dt
    noise = _Noise(seed, trials, cl.noise_scale)
    idx, wanted = scen.sample_grid()
    out = np.empty((trials, idx.size, cl.M))

    K2 = scen.plant.K2[0]
    err0 = scen.init_states[cl.sim_nodes] - scen.init_states[scen.graph.leader_index]
    eye, L2 = np.eye(cl.M), scen.lap.L2

    def block(k0, k1):
        a_b = cl.gains[k0:k1]
        return eye - dt * (a_b[:, :, None] * L2), noise.block(a_b)

    def store(s_i, k, Xh):
        out[:, s_i, :] = Xh

    _euler_maruyama(np.tile(err0 @ K2, (trials, 1)), block, lambda Xh: Xh,
                    cl.steps, dt, wanted, store)
    return out


def simulate_full(scen, seed: int) -> Trajectory:
    """One full-system path, sampled at the scenario's sample times."""
    return Trajectory(times=scen.sample_times, states=_run_full(scen, seed, 1)[0])


def simulate_reduced(scen, seed: int) -> Trajectory:
    """One path of the reduced error dynamics, noise-consistent with simulate_full."""
    return Trajectory(times=scen.sample_times, states=_run_reduced(scen, seed, 1)[0])


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
