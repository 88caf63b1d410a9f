"""Euler-Maruyama paths of the noisy consensus closed loop: one engine,
``_run``, steps the full system (``simulate_full``) and the filtered error
(``simulate_reduced``).  README says what a path depends on; ``_em_blocks``
(the steps), ``_path`` (their composition), ``_run`` and ``_split`` say how."""

from __future__ import annotations

import mmap
import os
import pickle
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import integrate
from .integrate import W
from .plant import ClosedLoopDrift, leader_closed_loop
from .series import write_csv

# Worker processes a batch may use: one per CPU this process may run on.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
# Bytes of each _split job's shared field: its pickled value, which may not be
# longer, or a child's failure text, which is cut to it.
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
    """Per-trial streams, Philox keyed on [seed, t], drawn up to ``steps`` steps
    at a time, step-major, into ``buf``: one row per trial."""

    def __init__(self, seed: int, trials: range, scale: np.ndarray, steps: int):
        self.streams = [np.random.Generator(np.random.Philox(key=np.array([seed, t], np.uint64)))
                        for t in trials]
        self.scale = scale  # (M,) sqrt(dt q): the increment's standard deviation at gain 1
        self.buf = np.zeros((len(trials), steps, scale.size))

    def skip(self, steps: int) -> None:
        """Draw and discard each stream's first ``steps`` steps, a buffer row at a time."""
        piece, total = self.buf[-1].reshape(-1), steps * self.scale.size
        for stream in self.streams:
            for i in range(0, total, piece.size):
                stream.standard_normal(out=piece[:total - i])

    def block(self, a_b: np.ndarray) -> np.ndarray:
        """Increments (rows, nb, M) of the next nb = len(a_b) steps."""
        buf = self.buf[:, :a_b.shape[0]]
        for stream, slab in zip(self.streams, buf):
            stream.standard_normal(out=slab)
        buf *= self.scale * a_b
        return buf


def _replay(X, S, V, n):
    """Yield the rows X after each step X <- X S_k^T + V[:, k], the increments
    V (noise rows, steps, M) on the last components of the last len(V) rows."""
    for S_k, v_k in zip(S, V.swapaxes(0, 1)):
        X = X @ S_k.T
        X[-len(V):, n - 1::n] += v_k
        yield X


def _first_nonfinite(X, S, V, n, k0, first) -> None:
    """Replay a failed block step by step from its start state X, and mark in
    ``first`` the rows that left the finite range at the first step any did."""
    for k, Z in enumerate(_replay(X, S, V, n), k0 + 1):
        if (bad := ~np.isfinite(Z).all(axis=1)).any():
            first[bad] = k
            return


def _em_blocks(scen, drift, forcing, seed: int, part: range, k_lo: int, k_hi: int):
    """Yield the Euler-Maruyama maps S (steps, D, D) and increments V (len(part),
    steps, M) of the trials ``part`` from step k_lo to k_hi, in blocks of at most
    integrate.SUBS sub-blocks of W steps whose maps fit in 32 MiB (at least one),
    the last sub-block padded with identity maps and zero increments.
    S_k = I + dt F(a_k): the gains reach only its ``drift.last`` rows, written for
    a block in one pass as a_b @ spread + phi.  V_k is each agent's noise
    increment plus, unless ``forcing`` is None, a_k * forcing, on its last component."""
    dt, M, D = scen.dt, drift.last.size, drift.base.shape[0]
    n, eye = D // M, np.eye(D)
    steps = W * max(1, min(integrate.SUBS, 2**25 // (8 * W * D * D), -(-(k_hi - k_lo) // W)))
    noise = _Noise(seed, part, np.sqrt(dt) * np.sqrt(scen.noise_rate[scen.sim_nodes]), steps)
    noise.skip(k_lo)
    phi = drift.base * dt + eye
    # -dt coupling row p in column block p: row k of a_b @ spread is -dt a_kp coupling[p].
    spread = (np.eye(M)[:, :, None] * (-dt * drift.coupling)).reshape(M, M * D)
    S_buf = np.tile(phi, (steps, 1, 1))
    for k0 in range(k_lo, k_hi, steps):
        nb = min(steps, k_hi - k0)
        whole = nb + -nb % W  # the block's steps, padded to whole sub-blocks
        a_b = scen.profile.gain_all(np.arange(k0, k0 + nb) * dt)
        v = noise.block(a_b)
        if forcing is not None:
            v += a_b * forcing
        S, V = S_buf[:whole], noise.buf[:, :whole]
        V[:, nb:] = 0.0
        np.add((a_b @ spread).reshape(nb, M, D), phi[n - 1::n], out=S[:nb, n - 1::n])
        S[nb:] = eye
        yield S, V


def _path(X, blocks, k_lo: int, k_hi: int, samples, dest, nodes, first, end) -> None:
    """Step the rows X from step k_lo to k_hi as ``_replay`` does, by the
    ``blocks`` (S, V) of whole W-step sub-blocks, none longer than the first;
    store the state at each sample step samples[i] it reaches in
    dest[i][:, nodes] (dest: samples, rows, agents, n), and at k_hi in ``end``.

    With Q_j = S_{j+1}^T ... S_{W-1}^T, a sub-block's steps are X <- X P + v G,
    P = S_0^T Q_0, with v (noise rows, W M) its increments and G (W M, D) its
    Q_j's last-component rows, stacked.  A block builds the Q_j, P and v G of
    all its sub-blocks in W stacked matmuls; each sub-block then costs one
    matmul in Python, and a sample inside one is stepped to one step at a
    time from its start.  A block whose state leaves the finite range is
    replayed step by step to record in ``first``, per row, the first step
    that did (or the block's last), and its end state goes to ``end``."""
    n, D, Y = dest.shape[-1], X.shape[1], np.empty(X.shape)
    wanted = samples.tolist() + [k_hi + W]  # closed past every sub-block's end
    nxt = int(np.searchsorted(samples, k_lo))
    if wanted[nxt] == k_lo:
        dest[nxt][:, nodes] = X.reshape(len(X), -1, n)
        nxt += 1
    k0 = k_lo
    for S, V in blocks:
        (rows, steps, M), n_sub = V.shape, len(S) // W
        if k0 == k_lo:  # buffers for the first block's sub-blocks
            Q, P = np.empty((2, n_sub, D, D)), np.empty((n_sub, D, D))
            G, C = np.empty((n_sub, W, M, D)), np.empty((n_sub, rows, D))  # C: each sub-block's v G
            G[:, W - 1] = np.eye(D)[n - 1::n]
        # Q_{W-2} = S_{W-1}^T, then Q_{j-1} = S_j^T Q_j down to P, for every
        # sub-block at once, alternating between the two Q buffers.
        St = S.reshape(n_sub, W, D, D).swapaxes(-1, -2)
        Qj = St[:, W - 1]
        for j in range(W - 2, -1, -1):
            G[:n_sub, j] = Qj[:, n - 1::n]
            Qj = np.matmul(St[:, j], Qj, out=Q[j % 2, :n_sub] if j else P[:n_sub])
        v_subs = V.reshape(rows, n_sub, W * M).swapaxes(0, 1)
        np.matmul(v_subs, G[:n_sub].reshape(n_sub, W * M, D), out=C[:n_sub])
        start = X.copy()
        for s in range(n_sub):
            k, k1 = k0 + s * W, k0 + (s + 1) * W
            np.matmul(X, P[s], out=Y)
            Y[-rows:] += C[s]
            if wanted[nxt] < k1:  # samples inside, each stepped to from the start
                for k, Z in enumerate(_replay(X, S[s * W:], V[:, s * W:], n), k + 1):
                    if k == wanted[nxt]:
                        dest[nxt][:, nodes] = Z.reshape(len(Z), -1, n)
                        nxt += 1
                        if wanted[nxt] >= k1:
                            break
            if wanted[nxt] == k1:
                dest[nxt][:, nodes] = Y.reshape(len(Y), -1, n)
                nxt += 1
            X, Y = Y, X
        if not np.isfinite(X).all():
            nb = min(steps, k_hi - k0)
            _first_nonfinite(start, S[:nb], V[:, :nb], n, k0, first)
            if not first.any():
                # The composed state left the finite range where no single step did.
                first[~np.isfinite(X).all(axis=1)] = k0 + nb
            break
        k0 += steps
    end[...] = X


def _ranges(trials: int) -> list[range]:
    """Contiguous trial ranges, one per worker, each at least 2 trials wide."""
    workers = max(1, min(WORKERS, trials // 2))
    return [range(w * trials // workers, (w + 1) * trials // workers) for w in range(workers)]


def _shared(shape: tuple, dtype) -> np.ndarray:
    """A zero-filled array in an anonymous map, shared with every child forked after."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, int(np.prod(shape)) * dtype.itemsize), dtype).reshape(shape)


def _split(jobs: list) -> list:
    """Run the named jobs [(name, job)], all but the last in forked children
    when WORKERS > 1, the rest in this process, and return their values.  Each
    job, forked or not, pickles its value into its own shared field and raises
    ValueError if it does not fit; a child that raises leaves the exception's
    text there instead, cut to the field, and exits 1.  Every child is reaped,
    also when a fork or the parent's job raised, and a child's failure
    becomes a SimulationError naming its job."""
    fields = _shared((len(jobs),), f"S{FAILURE_BYTES}")
    forked, pids = (jobs[:-1] if WORKERS > 1 else []), []

    def hand(i):
        name, job = jobs[i]
        data = pickle.dumps(job())
        if len(data) > FAILURE_BYTES:
            raise ValueError(f"{name} returned {len(data)} bytes, which exceed {FAILURE_BYTES}")
        fields[i] = data

    try:
        for i in range(len(forked)):
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    hand(i)
                    status = 0
                except Exception as exc:
                    fields[i] = f"{type(exc).__name__}: {exc}".encode(errors="replace")
                finally:
                    # Never unwind into the parent's stack (under a test runner,
                    # the child would go on running the parent's session).
                    os._exit(status)
            pids.append(pid)
        for i in range(len(forked), len(jobs)):
            hand(i)
    finally:
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for (name, _), text, status in zip(jobs, fields, statuses):
        if os.WIFSIGNALED(status):
            raise SimulationError(f"{name} was killed by signal {os.WTERMSIG(status)}")
        if status:
            raise SimulationError(f"{name} failed: {text.decode(errors='replace')}" if text else
                                  f"{name} exited with status {os.waitstatus_to_exitcode(status)}")
    return [pickle.loads(data) for data in fields]


def _run(scen, drift, x0, nodes, forcing, seed: int, trials: int) -> np.ndarray:
    """Batched Euler-Maruyama paths of the agents ``nodes`` (rows of x0, n =
    x0.shape[1] states each) under ``drift`` at the S sample times: (trials,
    S, *x0.shape), the rows outside ``nodes`` unset.  ``_em_blocks`` makes
    the steps, and ``_path`` takes them, in sub-blocks of W aligned to step 0.

    Trials run in ``_ranges``, one ``_split`` job each.  One trial splits its
    steps instead, at the sub-block boundary K halfway through the grid: one
    job steps x0 to X_K at step K, while the other steps the D + 1 rows
    [I_D; 0] from K, the last its noise row, after discarding the first K
    steps of the trial's stream; its rows Z at a later step give the state
    there, X_K Z[:D] + Z[D].  A split trial that left the finite range in
    either half, or whose joined state is not finite, runs again unsplit, so
    any NonFiniteError is the unsplit run's."""
    (M, n), D = x0[nodes].shape, drift.base.shape[0]
    samples, steps, X0 = scen.sample_steps(), scen.steps, x0[nodes].reshape(1, -1)
    blocks = partial(_em_blocks, scen, drift, forcing, seed)
    out = _shared((trials, samples.size, *x0.shape), np.float64)
    ends = _shared((trials, D), np.float64)  # each trial's state where its job stopped
    K = W * (-(-steps // W) // 2)
    if trials == 1 and K:
        i0 = int(np.searchsorted(samples, K, side="right"))
        # The second half's rows Z at each sample after K, then at the end.
        far = _shared((samples.size - i0 + 1, D + 1, M, n), np.float64)
        first = np.zeros(1, np.int64)
        _split([(f"worker for steps {K}-{steps - 1}",
                 partial(_path, np.eye(D + 1, D), blocks(range(1), K, steps), K, steps,
                         samples[i0:], far, slice(None), np.zeros(D + 1, np.int64),
                         far[-1].reshape(D + 1, D))),
                ("first half", partial(_path, X0.copy(), blocks(range(1), 0, K), 0, K, samples,
                                       out.swapaxes(0, 1), nodes, first, ends))])
        Z = far.reshape(-1, D + 1, D)
        joined = ends @ Z[:, :D] + Z[:, D:]
        if not first.any() and np.isfinite(joined).all():
            out[0][i0:, nodes] = joined[:-1].reshape(-1, M, n)
            return out

    first = _shared((trials,), np.int64)
    _split([(f"worker for trials {p.start}-{p.stop - 1}",
             partial(_path, np.tile(X0, (len(p), 1)), blocks(p, 0, steps), 0, steps, samples,
                     out[p.start:p.stop].swapaxes(0, 1), nodes, first[p.start:p.stop],
                     ends[p.start:p.stop]))
            for p in _ranges(trials)])
    if first.any():
        # The earliest step any trial left the finite range, and every trial that did then.
        step = int(first[first > 0].min())
        raise NonFiniteError(step * scen.dt, np.flatnonzero(first == step))
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
    """Drift -diag(a) L2 of the filtered error: N one-state agents, A + B K1 = 0 and K2 = 1."""
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
