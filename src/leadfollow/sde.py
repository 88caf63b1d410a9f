"""Euler-Maruyama simulation of the noisy consensus closed loop.

One engine, ``_run``, steps any closed-loop drift F(a) (``ClosedLoopDrift``)
of M agents with n states each.  Two systems go through it:

* ``simulate_full`` integrates every agent's state under the relative-state
  protocol with per-edge measurement noise.  The autonomous, noise-free leader
  is exact at the sample times (``leader_closed_loop``) and reaches the
  followers only through K2 x0(t) = K2 x0(0), constant as K2 (A + B K1) = 0.
* ``simulate_reduced`` integrates the N-dimensional filtered error
  Xhat = (I (x) K2)(X_F - 1 (x) x0), whose drift -Gains(t) L2 is that of N
  one-state agents with A + B K1 = 0 and K2 = 1.

Noise reaches simulated agent i only through the last component of its
state, as a_i(t) sqrt(q_i) dB_i in law, with q_i its noise variance rate
``SimScenario.noise_rate``: the engine draws one standard normal per simulated
agent per step and nothing else.  Trial t draws from its own counter-based
stream, Philox keyed on [base_seed, t], step-major (all agents of step k, then
step k + 1), so a trial's path depends neither on the block length nor on the
trial count (a one-trial run differs by round-off only: BLAS takes a
matrix-vector path for one row).  Both systems consume the same increments,
so a shared (scenario, seed) pair yields pathwise-consistent paths.

Each step is X <- S_k X plus the increment (noise and, for followers, the
leader forcing) on the last components, with S_k = I + dt F(a_k) built for a
block of steps at once.  The block's gains a_k, noise and leader forcing are
formed with it, from the step index alone, and nothing the engine holds grows
with the horizon.  The steps are affine, so they compose exactly: a block is
SUBS whole sub-blocks of W steps (``integrate.SUBS``, read at call time, and
``integrate.W``), the blocks of ``integrate.rk4_path``, aligned to step 0, and
each sub-block's W steps are applied as one composed map plus its carried
increments, one Python turn per W steps.  Only the order of the
floating-point operations differs from stepping one step at a time, and a
sub-block's arithmetic does not depend on the block length.
Additive noise makes plain Euler-Maruyama strong order 1.0; nothing higher is
warranted at desk scale.

A batch of trials is split into contiguous trial ranges, one per usable CPU
(``WORKERS``, from the process's CPU affinity; 1 where the platform has
none), each at least 2 trials wide.  All but the last range run in children
made with ``os.fork``; the parent runs the last range itself and then reaps
every child.  Shared memory is the one channel back: the output arrays live
in anonymous shared mmaps, whatever the range count, and a child that fails
leaves its exception's text (at most FAILURE_BYTES) in its range's field
there and exits 1.  Each range runs the serial code on its own streams and a
slab of at least 2 rows, where BLAS takes the same matrix-matrix path as for
the whole batch, so every trial's path is bit-identical to a serial run.  A
run with fewer than 4 trials is one range and never forks.

A range whose state leaves the finite range stops there and records, per
trial, the step it left at; ``_run`` reads that record after the split and
raises one NonFiniteError, the same whatever the split.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass

import numpy as np

from . import integrate
from .integrate import W
from .plant import ClosedLoopDrift, leader_closed_loop
from .series import write_csv

# Worker processes a batch may use: one per CPU this process may run on.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
# Bytes a worker's failure text may take; a longer text is cut.
FAILURE_BYTES = 4096


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
class Trajectory:
    """Sampled path of one simulation run."""

    times: np.ndarray    # (S,), the scenario's sample times
    states: np.ndarray   # full: (S, N+1, n); reduced: (S, N)


class _Noise:
    """Per-trial streams drawn one block of steps at a time."""

    def __init__(self, seed: int, trials: range, scale: np.ndarray):
        # Philox is counter-based: trial t's stream is a pure function of its key
        # [seed, t], whatever the trial count, the block size or the trial range.
        self.streams = [np.random.Generator(np.random.Philox(key=np.array([seed, t], np.uint64)))
                        for t in trials]
        self.scale = scale  # (M,) sqrt(dt q): the increment's standard deviation at gain 1
        self.buf = np.empty((len(trials), integrate.SUBS * W, scale.size))

    def block(self, a_b: np.ndarray) -> np.ndarray:
        """Increments (trials, nb, M) of the next nb = len(a_b) steps; trial t
        fills its slab step-major from its own stream."""
        buf = self.buf[:, :a_b.shape[0]]
        for stream, slab in zip(self.streams, buf):
            stream.standard_normal(out=slab)
        buf *= self.scale * a_b
        return buf


def _first_nonfinite(X, S, v, n, k0, first) -> None:
    """Replay a failed block step by step from its start state X, and mark in
    ``first`` the trials that left the finite range at the first step any did."""
    for k in range(S.shape[0]):
        X = X @ S[k].T
        X[:, n - 1::n] += v[:, k]
        bad = ~np.isfinite(X).all(axis=1)
        if bad.any():
            first[bad] = k0 + k + 1
            return


def _ranges(trials: int) -> list[range]:
    """Contiguous trial ranges, one per worker, each at least 2 trials wide."""
    workers = max(1, min(WORKERS, trials // 2))
    return [range(w * trials // workers, (w + 1) * trials // workers) for w in range(workers)]


def _shared(shape: tuple, dtype) -> np.ndarray:
    """A zero-filled array in an anonymous map, shared with every child forked after."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, int(np.prod(shape)) * dtype.itemsize), dtype).reshape(shape)


def _split(trials: int, shape: tuple, run) -> tuple[np.ndarray, np.ndarray]:
    """Run trials 0..trials-1 through run(range, rows, first), which fills
    ``rows`` (len(range), *shape) and marks in ``first`` (len(range),) the
    step at which each trial left the finite range; returns the (trials,
    *shape) output and the (trials,) int64 steps, 0 for a trial that stayed
    finite.

    All but the last range run in forked children and the parent runs the
    last.  A child hands back everything through shared memory: its rows, its
    steps and, when its range raises, the exception's text, cut to
    FAILURE_BYTES, before it exits 1.  Every child is reaped, also when a fork
    or the parent's range raised; a child's failure becomes a SimulationError.
    """
    ranges = _ranges(trials)
    out, first = _shared((trials, *shape), np.float64), _shared((trials,), np.int64)
    texts = _shared((len(ranges),), f"S{FAILURE_BYTES}")

    def job(part):
        run(part, out[part.start:part.stop], first[part.start:part.stop])

    pids = []
    try:
        for i, part in enumerate(ranges[:-1]):
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    job(part)
                    status = 0
                except Exception as exc:
                    texts[i] = f"{type(exc).__name__}: {exc}".encode(errors="replace")
                finally:
                    # Never unwind into the parent's stack (under a test runner,
                    # the child would go on running the parent's session).
                    os._exit(status)
            pids.append(pid)
        job(ranges[-1])
    finally:
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for part, text, status in zip(ranges, texts, statuses):
        where = f"worker for trials {part.start}-{part.stop - 1}"
        if os.WIFSIGNALED(status):
            raise SimulationError(f"{where} was killed by signal {os.WTERMSIG(status)}")
        if status:
            raise SimulationError(f"{where} failed: {text.decode(errors='replace')}" if text else
                                  f"{where} exited with status {os.waitstatus_to_exitcode(status)}")
    return out, first


def _run(scen, drift, x0, nodes, forcing, seed: int, trials: int) -> np.ndarray:
    """Batched Euler-Maruyama paths of the agents ``nodes`` (rows of x0, n =
    x0.shape[1] states each) under ``drift``, at the S sample times; returns
    (trials, S, *x0.shape), with the rows outside ``nodes`` left unset.

    Each step is X <- X S_k^T + V_k, S_k = I + dt F(a_k), where V_k gives each
    agent's last component its noise increment plus, unless ``forcing`` is
    None, a_k * forcing.  A block's transitions start from I + dt
    ``drift.base`` and rebuild only the ``drift.last`` rows, the only ones the
    gains reach.  The steps go in sub-blocks of W, aligned to step 0; only the
    grid's last sub-block is padded, with identity maps and zero increments.
    With Q_j = S_{j+1}^T ... S_{W-1}^T, a sub-block's W steps from X are

        X <- X P + v G,    P = S_0^T Q_0,

    with v (trials, W M) its increments and G (W M, D) the last-component rows
    of its Q_j, stacked.  The Q_j of all of a block's sub-blocks are built
    together, W - 1 stacked matmuls in all, and so are their v G; each
    sub-block then costs one matmul in Python.  A sample inside a sub-block is
    stepped to one step at a time from the sub-block's start."""
    n, dt, last = x0.shape[1], scen.dt, drift.last
    M, D = last.size, drift.base.shape[0]
    samples = scen.sample_steps()
    # The sample steps, closed by one past every sub-block's end.
    wanted = samples.tolist() + [scen.steps + W]
    scale = np.sqrt(dt) * np.sqrt(scen.noise_rate[scen.sim_nodes])
    eye = np.eye(D)
    phi = drift.base * dt + eye
    subs = integrate.SUBS

    def run(part, rows, first):
        noise = _Noise(seed, part, scale)
        count = len(part)
        S_buf = np.empty((subs * W, D, D))
        S_buf[...] = phi
        Q, P, G = np.empty((2, subs, D, D)), np.empty((subs, D, D)), np.empty((subs, W, M, D))
        G[:, W - 1] = eye[n - 1::n]
        C = np.empty((subs, count, D))  # each sub-block's v G
        X, Y = np.tile(x0[nodes].reshape(-1), (count, 1)), np.empty((count, D))

        def store(state, i):
            rows[:, i, nodes] = state.reshape(count, M, n)

        nxt = 0  # the next sample
        if wanted[0] == 0:
            store(X, 0)
            nxt = 1
        for k0 in range(0, scen.steps, subs * W):
            k1 = min(k0 + subs * W, scen.steps)
            nb = k1 - k0
            n_sub = -(-nb // W)
            a_b = scen.profile.gain_all(np.arange(k0, k1) * dt)
            v = noise.block(a_b)
            if forcing is not None:
                v += a_b * forcing
            V = noise.buf[:, :n_sub * W]
            V[:, nb:] = 0.0
            S = S_buf[:n_sub * W]
            S[:nb, last, :] = (drift.base[last] - a_b[:, :, None] * drift.coupling) * dt + eye[last]
            S[nb:] = eye
            # Q_{W-2} = S_{W-1}^T, then Q_{j-1} = S_j^T Q_j down to P, for every
            # sub-block at once, alternating between the two Q buffers.
            St = S.reshape(n_sub, W, D, D).swapaxes(-1, -2)
            Qj = St[:, W - 1]
            for j in range(W - 2, -1, -1):
                G[:n_sub, j] = Qj[:, n - 1::n]
                Qj = np.matmul(St[:, j], Qj, out=Q[j % 2, :n_sub] if j else P[:n_sub])
            v_subs = V.reshape(count, n_sub, W * M).swapaxes(0, 1)
            np.matmul(v_subs, G[:n_sub].reshape(n_sub, W * M, D), out=C[:n_sub])
            start = X.copy()
            for s in range(n_sub):
                k = k0 + s * W
                end = k + W
                np.matmul(X, P[s], out=Y)
                Y += C[s]
                Z = X  # stepped one step at a time to each sample inside
                while wanted[nxt] < end:
                    for k in range(k, wanted[nxt]):
                        Z = Z @ S[k - k0].T
                        Z[:, n - 1::n] += V[:, k - k0]
                    k = wanted[nxt]
                    store(Z, nxt)
                    nxt += 1
                if wanted[nxt] == end:
                    store(Y, nxt)
                    nxt += 1
                X, Y = Y, X
            if not np.isfinite(X).all():
                _first_nonfinite(start, S[:nb], v, n, k0, first)
                if not first.any():
                    # The composed state left the finite range where no single step did.
                    first[~np.isfinite(X).all(axis=1)] = k1
                return

    out, first = _split(trials, (samples.size, *x0.shape), run)
    if first.any():
        # The earliest step any trial left the finite range, and every trial that did then.
        step = int(first[first > 0].min())
        raise NonFiniteError(step * dt, np.flatnonzero(first == step))
    return out


def _run_full(scen, seed: int, trials: int) -> np.ndarray:
    """Batched paths of the full system at the S sample times; returns
    (trials, S, node_count, n)."""
    lead = scen.graph.leader_index
    forcing = None
    if not scen.leaderless:
        # -dt L1_i K2 x0(t) per unit gain, constant: K2 (A + B K1) = 0 fixes K2 x0.
        forcing = -scen.dt * (scen.plant.K2[0] @ scen.init_states[lead]) * scen.lap.L1[:, 0]
    out = _run(scen, scen.drift(), scen.init_states, scen.sim_nodes, forcing, seed, trials)
    if not scen.leaderless:
        out[:, :, lead, :] = leader_closed_loop(scen.plant, scen.init_states[lead],
                                                scen.sample_steps(), scen.dt)
    return out


def _reduced_drift(scen) -> ClosedLoopDrift:
    """Drift -diag(a) L2 of the filtered error: the closed loop of N one-state
    agents with A + B K1 = 0 and K2 = 1."""
    N = scen.lap.L2.shape[0]
    return ClosedLoopDrift(base=np.zeros((N, N)), coupling=scen.lap.L2, last=np.arange(N))


def _run_reduced(scen, seed: int, trials: int) -> np.ndarray:
    """Batched paths of the filtered error dynamics at the S sample times;
    returns (trials, S, N)."""
    if scen.leaderless:
        raise SimulationError("the reduced error dynamics require a leader")
    err0 = scen.init_states[scen.sim_nodes] - scen.init_states[scen.graph.leader_index]
    x0 = (err0 @ scen.plant.K2[0])[:, None]
    return _run(scen, _reduced_drift(scen), x0, slice(None), None, seed, trials)[..., 0]


def simulate_full(scen, seed: int) -> Trajectory:
    """One full-system path, sampled at the scenario's sample times."""
    return Trajectory(times=scen.sample_times, states=_run_full(scen, seed, 1)[0])


def simulate_reduced(scen, seed: int) -> Trajectory:
    """One path of the reduced error dynamics, noise-consistent with simulate_full."""
    return Trajectory(times=scen.sample_times, states=_run_reduced(scen, seed, 1)[0])


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """CSV export with one row per sample per state component; a reduced path
    has one component per follower."""
    states = traj.states.reshape(*traj.states.shape[:2], -1)
    s, node, comp = np.indices(states.shape).reshape(3, -1)
    write_csv(path, {"t": traj.times[s], "node": node, "component": comp,
                     "value": states.ravel()})
