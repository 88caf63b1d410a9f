"""Euler-Maruyama paths of the noisy consensus closed loop: one engine,
``_run``, steps the full system (``simulate_full``) and the filtered error
(``simulate_reduced``).  README says what a path depends on; ``_em_blocks``
(gains and increments), ``_Maps`` (the steps, composed in filtered
coordinates), ``_path``, ``_run`` and ``_split`` say how."""

from __future__ import annotations

import mmap
import os
import pickle
from dataclasses import dataclass
from functools import partial

import numpy as np

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


# The bytes (_Maps.work and the increments) and sub-blocks a block may take.
BLOCK_BYTES, MAX_SUBS = 3 * 2**20, 32


def _block_subs(D: int, M: int, rows: int) -> int:
    """Sub-blocks per block for D states, M agents and ``rows`` noise rows: as many
    as fit in BLOCK_BYTES, at least 1 and at most MAX_SUBS, so no horizon sizes one."""
    per_sub = D * D + W * M * (2 * D + M) + rows * (D + W * M)
    return max(1, min(MAX_SUBS, BLOCK_BYTES // (8 * per_sub)))


class _Maps:
    """The Euler-Maruyama steps X <- X S_k^T + v_k (v_k on the last components)
    of ``drift`` on rows X, S_k = I + dt F(a_k) = Phi - dt E diag(a_k) C with
    Phi = I + dt base, C = coupling and E the columns ``last``; ``replay``
    steps by that formula.  ``compose`` takes whole sub-blocks of W steps in
    z = T x, T = I_M (x) K2.  T E = I as K2 B = 1 exactly, T Phi = T as K2 (A +
    B K1) = 0 to build_plant's 1e-12, and C = L T (L = C[:, last]), so z <- Z_k
    z + v_k with the M x M maps Z_k = I - dt diag(a_k) L, and w = x - E z <-
    Phi w + dt base E z is a fixed filter of z.  A sub-block is X <- X P + v G,
    v (rows, W M) its increments, G_j the rows of v_j and H = Z_0^T G_0 + K_0^T:

        G_{W-1} = E^T,  G_{j-1} = Z_j^T G_j + K_j^T,  K_j = Phi^(W-1-j) dt base E,
        P = (I - E T)^T Phi^(W T) + T^T H = Phi^(W T) + T^T (H - H_I),

    H_I the same recursion at Z_k = I, so that a constant z passes as Phi^W
    does; K_j^T = I_M (x) b_{j-1}^T, b_{W-1} = e_n, b_{j-1} = phi^(W-1-j) dt (A
    + B K1) e_n.  Preset paths are within 1.5e-13 relative of single steps."""

    def __init__(self, drift, dt: float):
        (M, D), last, n = drift.coupling.shape, drift.last, drift.K2.size
        self.n, self.k2, self.eye = n, drift.K2[:, None], np.eye(M).ravel()
        self.phi_t, self.c_t = (np.eye(D) + dt * drift.base).T, -dt * drift.coupling.T
        sel = np.zeros((M, M, M))  # a_k @ sel: dt L^T diag(a_k), flat
        sel[np.arange(M), :, np.arange(M)] = dt * drift.coupling[:, last]
        self.sel, phi_t = sel.reshape(M, M * M), self.phi_t[:n, :n]
        powers = np.array([np.linalg.matrix_power(phi_t, W - 1 - j) for j in range(W)])
        b = np.vstack([dt * drift.base[:n, n - 1] @ powers, np.eye(n)[-1]])  # b_{j-1} in row j
        kb = (np.eye(M)[:, :, None] * b[:, None, None, :]).reshape(W + 1, M, D)
        self.k_t, self.e_t, self.h_i = kb[:W], kb[W], kb[::-1].sum(axis=0)  # K_j^T, E^T, H_I
        self.phi_w = np.kron(np.eye(M), np.linalg.matrix_power(phi_t, W))  # Phi^(W T)

    def replay(self, X, a, V):
        """Yield the rows X after each step of gains a and increments V (noise rows, steps, M)."""
        for a_k, v_k in zip(a, V.swapaxes(0, 1)):
            X, g = X @ self.phi_t, (X @ self.c_t) * a_k
            g[-len(V):] += v_k
            X[:, self.n - 1::self.n] += g
            yield X

    def work(self, n_sub: int, rows: int) -> tuple:
        """``compose``'s buffers: flat Z_k^T and G_j step-major, then G, P and v G."""
        M, D = self.e_t.shape
        return (np.empty(W * n_sub * M * M), np.empty(W * n_sub * M * D),
                np.empty((n_sub, W, M, D)), np.empty((n_sub, D, D)), np.empty((n_sub, rows, D)))

    def compose(self, a, V, work):
        """P (s, D, D) and v G (s, rows, D) of the s whole sub-blocks of the gains
        a (steps, M) and increments V (rows, steps, M), in the buffers ``work``."""
        (rows, _, M), s, (n, D) = V.shape, len(a) // W, (self.n, self.phi_w.shape[0])
        Zt, Gw = work[0][:W * s * M * M].reshape(W, s, M * M), work[1][:W * s * M * D]
        Gw, G, P, C = Gw.reshape(W, s, M, D), *(w[:s] for w in work[2:])
        np.matmul(a[:s * W].reshape(s, W, M).swapaxes(0, 1), self.sel, out=Zt)
        Zt = np.subtract(self.eye, Zt, out=Zt).reshape(W, s, M, M)
        Gw[-1] = self.e_t
        for j in range(W - 1, 0, -1):
            np.matmul(Zt[j], Gw[j], out=Gw[j - 1])
            Gw[j - 1] += self.k_t[j]
        H = Zt[0] @ Gw[0] + self.k_t[0] - self.h_i
        np.multiply(H[:, :, None, :], self.k2, out=P.reshape(s, M, n, D))  # T^T H
        P += self.phi_w
        G[...] = Gw.swapaxes(0, 1)
        v_subs = V[:, :s * W].reshape(rows, s, W * M).swapaxes(0, 1)
        return P, np.matmul(v_subs, G.reshape(s, W * M, D), out=C)


def _first_nonfinite(X, maps, a, V, k0, first) -> None:
    """Replay a failed block step by step from its start state X, and mark in
    ``first`` the rows that left the finite range at the first step any did."""
    for k, Z in enumerate(maps.replay(X, a, V), k0 + 1):
        if (bad := ~np.isfinite(Z).all(axis=1)).any():
            first[bad] = k
            return


def _em_blocks(scen, drift, forcing, seed: int, part: range, k_lo: int, k_hi: int):
    """Yield the gains a (steps, M) and increments V (len(part), steps, M) of
    the trials ``part`` from step k_lo to k_hi in blocks of ``_block_subs``
    sub-blocks (the whole path if shorter), the last ending at k_hi; a_k = a(k
    dt), and V_k the noise increments plus, unless ``forcing`` is None, a_k forcing."""
    dt, (M, D) = scen.dt, drift.coupling.shape
    steps = W * min(_block_subs(D, M, len(part)), max(1, -(-(k_hi - k_lo) // W)))
    noise = _Noise(seed, part, np.sqrt(dt) * np.sqrt(scen.noise_rate[scen.sim_nodes]), steps)
    noise.skip(k_lo)
    for k0 in range(k_lo, k_hi, steps):
        a_b = scen.profile.gain_all(np.arange(k0, min(k0 + steps, k_hi)) * dt)
        v = noise.block(a_b)
        if forcing is not None:
            v += a_b * forcing
        yield a_b, v


def _path(X, maps, blocks, k_lo: int, k_hi: int, samples, dest, nodes, first, end) -> None:
    """Step the rows X by ``maps`` from step k_lo to k_hi with the ``blocks``
    (a, V) of gains and increments, all but the last of whole W-step
    sub-blocks, none longer than the first; store the state at each sample
    step samples[i] in dest[i][:, nodes] (dest: samples, rows, agents, n), and
    at k_hi in ``end``.  A sub-block costs one matmul in Python; samples inside
    one, steps past the last whole one and the replay of a block that left the
    finite range (``first``: each row's first such step) go step by step."""
    n, Y = maps.n, np.empty(X.shape)
    wanted = samples.tolist() + [k_hi + W]  # closed past every sub-block's end
    nxt = int(np.searchsorted(samples, k_lo))
    if wanted[nxt] == k_lo:
        dest[nxt][:, nodes] = X.reshape(len(X), -1, n)
        nxt += 1
    k0 = k_lo
    for a, V in blocks:
        nb, rows = len(a), len(V)
        if k0 == k_lo:  # buffers for the first block's sub-blocks
            work = maps.work(nb // W, rows)
        P, C = maps.compose(a, V, work)
        start = X.copy()
        for i in range(0, nb, W):  # each sub-block's first step in the block
            k, k1, whole = k0 + i, k0 + min(i + W, nb), i + W <= nb
            if whole:
                np.matmul(X, P[i // W], out=Y)
                Y[-rows:] += C[i // W]
            if wanted[nxt] < k1 or not whole:  # samples inside, or steps past the whole ones
                for k, Z in enumerate(maps.replay(X, a[i:k1 - k0], V[:, i:k1 - k0]), k + 1):
                    if k == wanted[nxt]:
                        dest[nxt][:, nodes] = Z.reshape(len(Z), -1, n)
                        nxt += 1
                        if wanted[nxt] >= k1 and whole:
                            break
                Y = Y if whole else Z
            if wanted[nxt] == k1:
                dest[nxt][:, nodes] = Y.reshape(len(Y), -1, n)
                nxt += 1
            X, Y = Y, X
        if not np.isfinite(X).all():
            _first_nonfinite(start, maps, a, V, k0, first)
            if not first.any():
                # The composed state left the finite range where no single step did.
                first[~np.isfinite(X).all(axis=1)] = k0 + nb
            break
        k0 += nb
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
    S, *x0.shape), the rows outside ``nodes`` unset, in sub-blocks of W
    aligned to step 0.  Trials run in ``_ranges``, one ``_split`` job each.
    One trial splits its steps instead, at the sub-block boundary K halfway
    through the grid: one job steps x0 to X_K at step K, while the other
    steps the D + 1 rows [I_D; 0] from K, the last its noise row, after
    discarding the first K steps of the trial's stream; its rows Z at a later
    step give the state there, X_K Z[:D] + Z[D].  A split trial that left the
    finite range in either half, or whose joined state is not finite, runs
    again unsplit, so any NonFiniteError is the unsplit run's."""
    (M, n), D = x0[nodes].shape, drift.base.shape[0]
    samples, steps, X0 = scen.sample_steps(), scen.steps, x0[nodes].reshape(1, -1)
    blocks, maps = partial(_em_blocks, scen, drift, forcing, seed), _Maps(drift, scen.dt)
    out = _shared((trials, samples.size, *x0.shape), np.float64)
    ends = _shared((trials, D), np.float64)  # each trial's state where its job stopped
    K = W * (-(-steps // W) // 2)
    if trials == 1 and K:
        i0 = int(np.searchsorted(samples, K, side="right"))
        # The second half's rows Z at each sample after K, then at the end.
        far = _shared((samples.size - i0 + 1, D + 1, M, n), np.float64)
        first = np.zeros(1, np.int64)
        _split([(f"worker for steps {K}-{steps - 1}",
                 partial(_path, np.eye(D + 1, D), maps, blocks(range(1), K, steps), K, steps,
                         samples[i0:], far, slice(None), np.zeros(D + 1, np.int64),
                         far[-1].reshape(D + 1, D))),
                ("first half", partial(_path, X0.copy(), maps, blocks(range(1), 0, K), 0, K,
                                       samples, out.swapaxes(0, 1), nodes, first, ends))])
        Z = far.reshape(-1, D + 1, D)
        joined = ends @ Z[:, :D] + Z[:, D:]
        if not first.any() and np.isfinite(joined).all():
            out[0][i0:, nodes] = joined[:-1].reshape(-1, M, n)
            return out

    first = _shared((trials,), np.int64)
    _split([(f"worker for trials {p.start}-{p.stop - 1}",
             partial(_path, np.tile(X0, (len(p), 1)), maps, blocks(p, 0, steps), 0, steps,
                     samples, out[p.start:p.stop].swapaxes(0, 1), nodes, first[p.start:p.stop],
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
    return ClosedLoopDrift(base=np.zeros((N, N)), coupling=scen.lap.L2, last=np.arange(N),
                           K2=np.ones(1))


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
    write_csv(path, {"t": traj.times[s], "node": node, "component": comp, "value": states.ravel()})
