import errno
import json
import os
import pickle
import signal
import tracemalloc

import numpy as np
import pytest

import leadfollow as lf
from leadfollow import integrate, sde, verify
from leadfollow.scenario import scenario_from_dict
from leadfollow.verify import CheckResult

from conftest import dense_drift, dense_noise_routing, noiseless


def test_noiseless_consensus(fig1):
    """With all noise intensities zero the protocol drives every follower to
    the leader within the horizon."""
    scen = noiseless(fig1, t_end=50.0, sample_times=[0.0, 50.0])
    traj = lf.simulate_full(scen, 1)
    err = np.linalg.norm(traj.states[-1, 1:] - traj.states[-1, 0], axis=1)
    assert err.max() < 1e-2


def test_reduction_identity_shared_noise(fig1):
    """The filtered error of the full simulation and the reduced simulation
    coincide pathwise when both consume the same noise stream; the identity is
    exact for the discretized system, so the gap is round-off."""
    scen = fig1.with_overrides(t_end=10.0, sample_times=np.linspace(0.0, 10.0, 101))
    K2 = scen.plant.K2[0]
    for seed in (7, 42):
        full = lf.simulate_full(scen, seed)
        red = lf.simulate_reduced(scen, seed)
        err = full.states[:, 1:, :] - full.states[:, [0], :]
        assert np.abs(red.states - err @ K2).max() <= 1e-10


def test_reduction_check_covers_every_batched_path(fig1, monkeypatch):
    """The battery's reduction check runs its REDUCTION_SEEDS paths as one
    batch; a 1e-6 gap on trial 2's reduced path alone makes it FAIL."""
    assert verify.check_reduction_consistency(fig1).passed
    run_reduced = sde._run_reduced

    def shifted(scen, seed, trials):
        out = run_reduced(scen, seed, trials)
        assert trials == verify.REDUCTION_SEEDS == 3
        out[2] += 1e-6
        return out

    monkeypatch.setattr(sde, "_run_reduced", shifted)
    res = verify.check_reduction_consistency(fig1)
    assert not res.passed
    assert res.value == pytest.approx(1e-6, rel=1e-6)


def test_reduced_matches_oracle_mean_without_noise(fig1):
    """rho = 0 turns the reduced SDE into an ODE; a refined Euler run must land
    on the exact mean."""
    st = np.linspace(0.0, 10.0, 21)
    fine = noiseless(fig1, t_end=10.0, dt=5e-5, sample_times=st)
    red = lf.simulate_reduced(fine, 5)
    oracle = lf.evolve_moments(noiseless(fig1, t_end=10.0, sample_times=st))
    K2 = fig1.plant.K2[0]
    assert np.abs(red.states - oracle.mean_err @ K2).max() <= 1e-4


def test_reduced_zero_initial_error_stays_zero(fig1):
    raw = json.loads(fig1.raw_json)
    raw["init"]["states"] = [raw["init"]["states"][0]] * 5
    raw["noise"] = {"rho": 0.0}
    raw["integration"]["t_end"] = 5.0
    raw["integration"]["sample_times"] = [0.0, 2.5, 5.0]
    scen = scenario_from_dict(raw)
    red = lf.simulate_reduced(scen, 3)
    assert np.abs(red.states).max() == 0.0


def test_determinism(fig1):
    scen = fig1.with_overrides(t_end=2.0, sample_times=np.linspace(0.0, 2.0, 11))
    a = lf.simulate_full(scen, 99)
    b = lf.simulate_full(scen, 99)
    assert np.array_equal(a.states, b.states)
    c = lf.simulate_full(scen, 100)
    assert not np.array_equal(a.states, c.states)


def test_dt_refinement_within_confidence(fig1):
    """Halving dt moves the 200-trial endpoint mean-square estimates by less
    than their own confidence half-width."""
    base = fig1.with_overrides(t_end=5.0, trials=200, base_seed=77, sample_times=[5.0])
    coarse = lf.monte_carlo_moments(base)
    fine = lf.monte_carlo_moments(base.with_overrides(dt=5e-4))
    assert np.all(np.abs(coarse.mse - fine.mse) < coarse.halfwidth)


def test_noise_channel_independence():
    """Each trial draws one standard normal per agent per step from its own
    stream, step-major; distinct (trial, agent) channels are uncorrelated,
    unit-variance and free of lag-one correlation in the order the simulator
    consumes them."""
    trials, M, steps = 6, 4, 100000
    block = integrate.SUBS * integrate.W
    noise = sde._Noise(123, range(trials), np.ones(M), block)
    chunks = []
    for k0 in range(0, steps, block):
        nb = min(block, steps - k0)
        chunks.append(noise.block(np.ones((nb, M))).copy())
    z = np.concatenate(chunks, axis=1).transpose(1, 0, 2).reshape(steps, trials * M)
    corr = np.corrcoef(z.T) - np.eye(trials * M)
    assert np.abs(corr).max() < 0.02
    assert np.abs(z.var(axis=0) - 1.0).max() < 0.02
    lag1 = (z[1:] * z[:-1]).mean(axis=0)
    assert np.abs(lag1).max() < 0.02


def _invariance_scenario(fig1):
    return fig1.with_overrides(t_end=2.0, sample_times=np.linspace(0.0, 2.0, 21))


def test_trials_invariant_to_trial_count(fig1):
    """Trial t is keyed on (seed, t) alone: the first 8 trials of a 500-trial
    run are an 8-trial run, bit for bit."""
    scen = _invariance_scenario(fig1)
    few = sde._run_full(scen, 5, 8)
    many = sde._run_full(scen, 5, 500)
    assert np.array_equal(few, many[:8])


def test_trials_invariant_to_block_steps(fig1, fig2, monkeypatch):
    """Each stream is consumed step-major and the gains and leader forcing are
    formed per block from the step index alone, and a block is whole
    sub-blocks aligned to step 0, so the block size changes nothing, also with
    block boundaries that split no sample interval evenly."""
    scen = _invariance_scenario(fig1)
    leaderless = fig2.with_overrides(t_end=2.0, sample_times=np.linspace(0.0, 2.0, 21))
    assert integrate.SUBS * integrate.W == 256
    full, red = sde._run_full(scen, 5, 4), sde._run_reduced(scen, 5, 4)
    free = sde._run_full(leaderless, 5, 4)
    for subs in (32, 7):  # blocks of 512 and 112 steps
        monkeypatch.setattr(integrate, "SUBS", subs)
        assert np.array_equal(sde._run_full(scen, 5, 4), full)
        assert np.array_equal(sde._run_reduced(scen, 5, 4), red)
        assert np.array_equal(sde._run_full(leaderless, 5, 4), free)


def test_single_trial_matches_trial_zero(fig1):
    """A one-trial run is trial 0 of a batch up to round-off: BLAS takes a
    matrix-vector path for a single row."""
    scen = _invariance_scenario(fig1)
    one = sde._run_full(scen, 5, 1)
    batch = sde._run_full(scen, 5, 4)
    assert not np.array_equal(batch[0], batch[1])
    assert np.abs(one[0] - batch[0]).max() <= 1e-12


@pytest.mark.parametrize("workers", [1, 2])
def test_zero_step_run_returns_the_initial_state(fig1, monkeypatch, deadline, workers):
    """A t_end under dt / 2 rounds to 0 steps; the one sample, at step 0, is x0."""
    monkeypatch.setattr(sde, "WORKERS", workers)
    scen = fig1.with_overrides(t_end=4e-4, sample_times=[4e-4])
    assert scen.steps == 0 and scen.sample_steps().tolist() == [0]
    x0 = scen.init_states
    err0 = (x0[scen.sim_nodes] - x0[scen.graph.leader_index]) @ scen.plant.K2[0]
    for trials in (1, 4):
        assert np.array_equal(sde._run_full(scen, 3, trials), np.tile(x0, (trials, 1, 1, 1)))
        assert np.array_equal(sde._run_reduced(scen, 3, trials), np.tile(err0, (trials, 1, 1)))


def test_noise_rate_matches_dense_routing(fig1):
    """q is the last-component diagonal of G G^T for the dense per-edge noise
    routing G, with non-integer weights and an edge without noise; the
    receivers' noises are uncorrelated."""
    raw = json.loads(fig1.raw_json)
    raw["graph"]["weights"][2][4] = 0.5
    raw["graph"]["weights"][3][1] = 2.5
    raw["noise"] = {"edges": [
        {"to": 1, "from": 0, "rho": [1.0, 0.5, 2.0, 0.3]},
        {"to": 2, "from": 0, "rho": 0.7},
        {"to": 2, "from": 4, "rho": [0.2, 1.1, 0.0, 1.5]},
        {"to": 3, "from": 1, "rho": [0.9, 0.4, 1.3, 0.6]},
        {"to": 4, "from": 1, "rho": 0.0},
        {"to": 4, "from": 3, "rho": [1.7, 0.1, 0.8, 1.2]},
    ]}
    scen = scenario_from_dict(raw)
    fol = scen.graph.follower_indices
    G = dense_noise_routing(scen, fol)
    last = np.arange(len(fol)) * scen.plant.n + scen.plant.n - 1
    GG = (G @ G.T)[np.ix_(last, last)]
    assert np.array_equal(GG, np.diag(np.diag(GG)))
    q = scen.noise_rate[fol]
    assert q.shape == (len(fol),)
    assert np.allclose(q, np.diag(GG), rtol=1e-14, atol=0.0)


def test_nonfinite_error_names_first_step(fig1):
    """A finite but huge state overflows inside the first block; the error
    names the first step that left the finite range, not the block's end,
    and the trials that did."""
    raw = json.loads(fig1.raw_json)
    raw["init"]["states"][2] = [1e308] * 4
    raw["integration"]["sample_times"] = [0.0]
    scen = scenario_from_dict(raw)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(sde.NonFiniteError, match=r"t = 0\.134 in 3 trial\(s\): 0, 1, 2") as exc:
            sde._run_full(scen, 1, 3)
        assert exc.value.t < integrate.SUBS * integrate.W * scen.dt
        # The step before the named one is still finite.
        t_before = exc.value.t - scen.dt
        before = scen.with_overrides(t_end=t_before, sample_times=[t_before])
        assert np.isfinite(sde._run_full(before, 1, 3)).all()


def _overflowing(fig1, t_end, sample_times):
    """fig1 with a finite but huge follower state, which leaves the finite
    range at step 134 in every trial."""
    raw = json.loads(fig1.raw_json)
    raw["init"]["states"][2] = [1e308] * 4
    raw["integration"]["t_end"] = t_end
    raw["integration"]["sample_times"] = sample_times
    return scenario_from_dict(raw)


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("t_end, sample_times",
                         [(0.14, [0.0, 0.133, 0.135]), (0.134, [0.0, 0.133])])
def test_nonfinite_in_the_padded_last_sub_block(fig1, t_end, sample_times, trials):
    """Step 134 lies in the grid's last sub-block (steps 128-143, padded past
    the horizon), between two samples there, or as the grid's last step; the
    error names that step and every trial."""
    scen = _overflowing(fig1, t_end, sample_times)
    message = rf"t = 0\.134 in {trials} trial\(s\): {', '.join(map(str, range(trials)))}$"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(sde.NonFiniteError, match=message):
            sde._run_full(scen, 1, trials)


def test_nonfinite_block_raises_when_its_replay_finds_no_step(fig1, monkeypatch):
    """A block whose composed state is non-finite raises even if the step by
    step replay finds no step: the block's last step is named, with every
    trial whose state is non-finite, and no path is returned with unset rows."""
    scen = _overflowing(fig1, 0.14, [0.0, 0.133, 0.135])
    monkeypatch.setattr(sde, "_first_nonfinite", lambda *args: None)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(sde.NonFiniteError, match=r"t = 0\.14 in 3 trial\(s\): 0, 1, 2$"):
            sde._run_full(scen, 1, 3)


@pytest.fixture
def deadline():
    """Fail instead of hanging if a forked run never returns."""
    def expire(signum, frame):
        raise TimeoutError("the forked run did not return within 60 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("workers", [1, 2])
def test_nonfinite_error_merged_across_workers(fig1, monkeypatch, deadline, workers):
    """Each worker names its own first non-finite step; the parent merges them
    into the error a serial run raises, in global trial indices."""
    raw = json.loads(fig1.raw_json)
    raw["init"]["states"][2] = [1e308] * 4
    raw["integration"]["sample_times"] = [0.0]
    scen = scenario_from_dict(raw)
    monkeypatch.setattr(sde, "WORKERS", workers)
    assert len(sde._ranges(4)) == workers
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(sde.NonFiniteError) as exc:
            sde._run_full(scen, 1, 4)
    assert str(exc.value) == "state became non-finite at t = 0.134 in 4 trial(s): 0, 1, 2, 3"


def test_nonfinite_error_merged_across_ranges_at_different_steps(fig1, monkeypatch, deadline):
    """Trials of both ranges leave the finite range at step 7 and trial 0 at
    step 9: the error names the earliest step with every trial that left at
    it, from both ranges, and not the later trial."""
    scen = _invariance_scenario(fig1)
    block = sde._Noise.block

    def poisoned(self, a_b):
        buf = block(self, a_b)
        for row, stream in enumerate(self.streams):
            trial = int(stream.bit_generator.state["state"]["key"][1])
            step = {0: 9, 1: 7, 3: 7}.get(trial)
            if step is not None:
                buf[row, step - 1] = np.inf  # enters the state at the step's end
        return buf

    monkeypatch.setattr(sde, "WORKERS", 2)
    monkeypatch.setattr(sde._Noise, "block", poisoned)
    assert sde._ranges(4) == [range(0, 2), range(2, 4)]
    with np.errstate(invalid="ignore"):
        with pytest.raises(sde.NonFiniteError) as exc:
            sde._run_full(scen, 1, 4)
    assert str(exc.value).endswith("t = 0.007 in 2 trial(s): 1, 3")
    assert exc.value.trials == (1, 3)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_trials_invariant_to_worker_count(fig1, monkeypatch, deadline, workers):
    """Every worker runs its trial range on at least 2 rows, so each trial's
    path is bit-identical whatever the split."""
    scen = _invariance_scenario(fig1)
    runs = {}
    for count in (1, workers):
        monkeypatch.setattr(sde, "WORKERS", count)
        runs[count] = [f(scen, 5, trials) for trials in (7, 8)
                       for f in (sde._run_full, sde._run_reduced)]
        runs[count].append(lf.monte_carlo_moments(scen.with_overrides(trials=8)))
    assert [len(sde._ranges(t)) for t in (7, 8)] == [workers] * 2
    *paths, mc = runs[workers]
    *serial, mc1 = runs[1]
    assert all(np.array_equal(a, b) for a, b in zip(paths, serial))
    for field in ("mean_err", "mse", "halfwidth"):
        assert np.array_equal(getattr(mc, field), getattr(mc1, field))


@pytest.mark.parametrize("how", ["raise", "kill"])
def test_worker_failure_surfaces_and_is_reaped(fig1, monkeypatch, deadline, how):
    """A worker that raises, or dies without a word, is a SimulationError in
    the parent, naming its trial range; no child is left behind."""
    scen = _invariance_scenario(fig1)
    parent, block = os.getpid(), sde._Noise.block

    def failing(self, a_b):
        if os.getpid() != parent:  # the child runs the range starting at trial 0
            if how == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("noise source failed")
        return block(self, a_b)

    monkeypatch.setattr(sde, "WORKERS", 2)
    monkeypatch.setattr(sde._Noise, "block", failing)
    reason = {"raise": "failed: RuntimeError: noise source failed",
              "kill": "was killed by signal 9"}[how]
    with pytest.raises(sde.SimulationError, match=f"worker for trials 0-1 {reason}") as exc:
        sde._run_full(scen, 5, 4)
    assert not isinstance(exc.value, sde.NonFiniteError)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_failure_midway_reaps_the_started_child(fig1, monkeypatch, deadline):
    """With three ranges, a second fork that fails propagates its OSError, and
    only after the child of the first fork was reaped."""
    scen = _invariance_scenario(fig1)
    fork, calls = os.fork, []

    def failing_fork():
        calls.append(os.getpid())
        if len(calls) == 2:
            raise OSError(errno.EAGAIN, "fork refused")
        return fork()

    monkeypatch.setattr(sde, "WORKERS", 3)
    monkeypatch.setattr(os, "fork", failing_fork)
    assert len(sde._ranges(6)) == 3
    with pytest.raises(OSError, match="fork refused"):
        sde._run_full(scen, 5, 6)
    assert calls == [os.getpid()] * 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_failure_text_is_cut_to_its_field(fig1, monkeypatch, deadline):
    """A failure text longer than FAILURE_BYTES is cut to that length, and the
    run still raises a SimulationError naming the worker's range."""
    scen = _invariance_scenario(fig1)
    parent, block = os.getpid(), sde._Noise.block

    def failing(self, a_b):
        if os.getpid() != parent:
            raise RuntimeError("x" * (2 * sde.FAILURE_BYTES))
        return block(self, a_b)

    monkeypatch.setattr(sde, "WORKERS", 2)
    monkeypatch.setattr(sde._Noise, "block", failing)
    with pytest.raises(sde.SimulationError) as exc:
        sde._run_full(scen, 5, 4)
    prefix = "worker for trials 0-1 failed: "
    assert str(exc.value) == prefix + ("RuntimeError: " + "x" * sde.FAILURE_BYTES)[:sde.FAILURE_BYTES]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _split_scenario(fig1):
    """fig1 over 2007 steps, 126 sub-blocks with the last padded: the step
    split falls at K = 1008, a sample step, with samples inside sub-blocks on
    both sides of it."""
    scen = fig1.with_overrides(t_end=2.007, sample_times=[0.0, 0.5, 1.0, 1.008, 1.5, 2.0, 2.007])
    assert _split_step(scen) == 1008
    return scen


def _split_step(scen):
    return integrate.W * (-(-scen.steps // integrate.W) // 2)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("subs", [7, 16, 32])
def test_one_trial_invariant_to_workers_and_block_steps(fig1, fig2, monkeypatch, deadline,
                                                         workers, subs):
    """A one-trial run splits its steps at a boundary that depends on neither
    the worker count nor the block length, so its paths are bit-identical
    under both; with two workers the second half runs in one forked child."""
    scen = _split_scenario(fig1)
    leaderless = fig2.with_overrides(t_end=2.007, sample_times=scen.sample_times)

    def runs():
        return [sde._run_full(scen, 5, 1), sde._run_reduced(scen, 5, 1),
                sde._run_full(leaderless, 5, 1)]

    monkeypatch.setattr(sde, "WORKERS", 1)
    serial = runs()
    fork, forks = os.fork, []

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(sde, "WORKERS", workers)
    monkeypatch.setattr(integrate, "SUBS", subs)
    monkeypatch.setattr(os, "fork", counted_fork)
    assert all(np.array_equal(a, b) for a, b in zip(runs(), serial))
    assert len(forks) == (3 if workers == 2 else 0)


@pytest.mark.parametrize("workers", [1, 2])
def test_one_trial_nonfinite_after_the_split_names_its_step(fig1, monkeypatch, deadline, workers):
    """A one-trial state that first leaves the finite range in the second half
    raises the NonFiniteError of an unsplit run, naming that step."""
    scen = _split_scenario(fig1)
    step = 1500  # its increment enters the state at step 1501
    assert _split_step(scen) < step
    poison, block = scen.profile.gain_all(step * scen.dt), sde._Noise.block

    def poisoned(self, a_b):
        buf = block(self, a_b)
        buf[-1, (a_b == poison).all(axis=1)] = np.inf  # the trial's row, in either half
        return buf

    monkeypatch.setattr(sde, "WORKERS", workers)
    monkeypatch.setattr(sde._Noise, "block", poisoned)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(sde.NonFiniteError) as exc:
            sde._run_full(scen, 5, 1)
    assert str(exc.value) == "state became non-finite at t = 1.501 in 1 trial(s): 0"


@pytest.mark.parametrize("how", ["raise", "kill"])
def test_second_half_failure_surfaces_and_is_reaped(fig1, monkeypatch, deadline, how):
    """A second-half child that raises, or dies without a word, is a
    SimulationError in the parent naming its step range; no child is left."""
    scen = _split_scenario(fig1)
    parent, block = os.getpid(), sde._Noise.block

    def failing(self, a_b):
        if os.getpid() != parent:
            if how == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("noise source failed")
        return block(self, a_b)

    monkeypatch.setattr(sde, "WORKERS", 2)
    monkeypatch.setattr(sde._Noise, "block", failing)
    reason = {"raise": "failed: RuntimeError: noise source failed",
              "kill": "was killed by signal 9"}[how]
    with pytest.raises(sde.SimulationError, match=f"^worker for steps 1008-2006 {reason}$") as exc:
        sde._run_full(scen, 5, 1)
    assert not isinstance(exc.value, sde.NonFiniteError)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [1, 2])
def test_noise_buffer_holds_only_its_streams_rows(fig1, monkeypatch, deadline, workers):
    """Both halves of a one-trial run draw into a buffer of one row per
    stream: the second half's D + 1 rows take noise on their last row alone,
    and no zero rows are drawn, scaled or stepped for the others."""
    scen = _split_scenario(fig1)
    parent, block = os.getpid(), sde._Noise.block
    counts = sde._shared((2, 2), np.int64)  # per process: blocks drawn, of them one row per stream

    def recorded(self, a_b):
        buf = block(self, a_b)
        row = counts[int(os.getpid() != parent)]
        row += [1, len(buf) == len(self.streams)]
        return buf

    monkeypatch.setattr(sde, "WORKERS", workers)
    monkeypatch.setattr(sde._Noise, "block", recorded)
    sde._run_full(scen, 5, 1)
    K, per_block = _split_step(scen), integrate.SUBS * integrate.W
    assert counts[:, 0].sum() == -(-K // per_block) + -(-(scen.steps - K) // per_block)
    assert (counts[1, 0] > 0) == (workers == 2)  # the forked second half drew its own
    assert np.array_equal(counts[:, 1], counts[:, 0])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("value", [None, np.arange(12.0).reshape(3, 4),
                                   (CheckResult("a", 0.5, 1.0, "<=", True),
                                    CheckResult("b", 2.0, 1.0, ">=", True, surrogate=True))],
                         ids=["none", "ndarray", "check_results"])
def test_split_hands_back_every_jobs_value(monkeypatch, deadline, workers, value):
    """A job's value comes back through its shared field, forked (the first
    job at 2 workers) or in this process, equal to what the job returned."""
    monkeypatch.setattr(sde, "WORKERS", workers)
    forked, own = sde._split([("first", lambda: value), ("last", lambda: value)])
    for got in (forked, own):
        assert type(got) is type(value)
        assert np.array_equal(got, value) if isinstance(value, np.ndarray) else got == value


@pytest.mark.parametrize("workers", [1, 2])
def test_split_value_too_large_for_its_field_raises(monkeypatch, deadline, workers):
    """A value whose pickle does not fit its field raises in this process at
    any worker count; it is never cut."""
    big = "x" * sde.FAILURE_BYTES
    monkeypatch.setattr(sde, "WORKERS", workers)
    with pytest.raises(ValueError, match=f"^last returned {len(pickle.dumps(big))} bytes, "
                                         f"which exceed {sde.FAILURE_BYTES}$"):
        sde._split([("first", lambda: None), ("last", lambda: big)])


def _chain(fig1, followers, t_end):
    """fig1's leader and gains on a directed chain of ``followers`` agents of
    order 8 (D = 8 followers), at dt 1e-3, sampled at 0, 0.01 and t_end."""
    raw = json.loads(fig1.raw_json)
    weights = np.zeros((followers + 1, followers + 1))
    weights[np.arange(1, followers + 1), np.arange(followers)] = 1.0
    raw["graph"]["weights"] = weights.tolist()
    raw["plant"] = {"alpha": [0.0] * 8, "b": [1, 7, 21, 35, 35, 21, 7]}  # K2 = (s + 1)^7
    raw["gains"]["agents"] = [raw["gains"]["agents"][i % 5] for i in range(followers + 1)]
    raw["init"]["states"] = np.cos(np.arange((followers + 1) * 8.0)).reshape(-1, 8).tolist()
    raw["integration"] = {"dt": 0.001, "t_end": t_end, "sample_times": [0.0, 0.01, t_end]}
    return scenario_from_dict(raw)


@pytest.mark.parametrize("t_end", [0.032, 0.016], ids=["split", "one_sub_block"])
def test_one_trial_end_state_larger_than_a_split_field(fig1, monkeypatch, deadline, t_end):
    """A one-trial run whose state's pickle exceeds FAILURE_BYTES (64
    followers of order 8, D = 512) runs, split into two halves at 32 steps
    and unsplit at 16, at 1 and 2 workers alike, and is trial 0 of a batch up
    to round-off.  Its block buffers hold the path's sub-blocks, not a whole
    block: in this process its traced peak stays under 128 MB, where one
    block of 256 D x D maps takes 512 MB."""
    scen = _chain(fig1, 64, t_end)
    assert len(pickle.dumps(np.zeros((1, scen.drift().base.shape[0])))) > sde.FAILURE_BYTES
    assert (_split_step(scen) > 0) == (t_end > 0.016)
    assert integrate.SUBS * integrate.W == 256
    monkeypatch.setattr(sde, "WORKERS", 1)
    tracemalloc.start()
    try:
        runs = [sde._run_full(scen, 5, 1)]
        assert tracemalloc.get_traced_memory()[1] < 128 * 2**20
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(sde, "WORKERS", 2)
    runs.append(sde._run_full(scen, 5, 1))
    assert np.array_equal(runs[0], runs[1])
    assert np.abs(runs[0][0] - sde._run_full(scen, 5, 2)[0]).max() <= 1e-12


def test_block_maps_fit_in_32_mib(fig1, monkeypatch, deadline):
    """A long path keeps its blocks' maps within 32 MiB: a 300-step 2-trial
    run at D = 256 (32 followers of order 8) takes blocks of 4 sub-blocks,
    not integrate.SUBS, and its traced peak stays under 64 MB, where one
    block of 256 D x D maps takes 128 MB."""
    scen = _chain(fig1, 32, 0.3)
    assert scen.steps == 300 and integrate.SUBS * integrate.W == 256
    monkeypatch.setattr(sde, "WORKERS", 1)
    tracemalloc.start()
    try:
        sde._run_full(scen, 5, 2)
        assert tracemalloc.get_traced_memory()[1] < 64 * 2**20
    finally:
        tracemalloc.stop()


def _padded_blocks(S, V, per_block):
    """A hand-made producer: the maps S and increments V in blocks of
    ``per_block`` steps, the last sub-block padded with identity maps and
    zero increments."""
    for b0 in range(0, len(S), per_block):
        S_b, V_b = S[b0:b0 + per_block], V[:, b0:b0 + per_block]
        pad = -len(S_b) % integrate.W
        yield (np.concatenate([S_b, np.tile(np.eye(S.shape[1]), (pad, 1, 1))]),
               np.concatenate([V_b, np.zeros((len(V), pad, V.shape[2]))], axis=1))


def test_path_composes_any_producers_blocks():
    """_path steps any blocks it is given as a per-step loop does: dense
    random maps S_k, increments on the last 3 of 5 rows, from k_lo = 32 over
    53 steps (no whole number of sub-blocks) in blocks of 2 sub-blocks.  The
    samples at a sub-block start, inside one, at one's end and at k_hi match
    the loop to 1e-12 of its scale, and a sample before k_lo is left unset.
    An inf in one increment marks, in ``first``, the loop's first step with a
    non-finite row, on that row alone."""
    W, M, n, rows, noisy = integrate.W, 3, 2, 5, 3
    D, k_lo, steps = M * n, 2 * W, 53
    rng = np.random.default_rng(11)
    S = np.eye(D) + 0.2 * rng.standard_normal((steps, D, D))
    V = rng.standard_normal((noisy, steps, M))
    X0 = rng.standard_normal((rows, D))
    samples = np.array([5, k_lo, k_lo + 20, k_lo + 3 * W, k_lo + steps])

    def loop(V):
        X, states = X0.copy(), [X0]
        for k in range(steps):
            X = X @ S[k].T
            X[-noisy:, n - 1::n] += V[:, k]
            states.append(X)
        return np.array(states)

    ref, dest, end = loop(V), np.zeros((samples.size, rows, M, n)), np.empty((rows, D))
    first = np.zeros(rows, np.int64)
    sde._path(X0.copy(), _padded_blocks(S, V, 2 * W), k_lo, k_lo + steps, samples, dest,
              slice(None), first, end)
    assert not dest[0].any() and not first.any()
    got, want = dest[1:].reshape(-1, rows, D), ref[samples[1:] - k_lo]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    np.testing.assert_allclose(end, ref[-1], rtol=1e-12, atol=1e-12 * np.abs(ref[-1]).max())
    V[1, 40, 2] = np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        bad = ~np.isfinite(loop(V)).all(axis=2)
        sde._path(X0.copy(), _padded_blocks(S, V, 2 * W), k_lo, k_lo + steps, samples, dest,
                  slice(None), first, end)
    step = int(np.flatnonzero(bad.any(axis=1))[0])
    assert step == 41 and bad[step].sum() == 1
    assert np.array_equal(first, np.where(bad[step], k_lo + step, 0))


def test_step_k_uses_the_gain_at_its_start(fig1):
    """Step k takes the gains a(k dt) in both its drift and its noise: a
    per-step loop on the dense drift of all nodes, with the leader stepped
    too, and on the same Philox draws (keyed [seed, t], step-major) gives the
    engine's follower paths to 1e-12 of their scale at dt = 0.01, where a(k dt)
    and a((k + 1) dt) differ far above round-off."""
    scen = fig1.with_overrides(dt=0.01, t_end=2.0, sample_times=np.linspace(0.0, 2.0, 201))
    seed, trials, dt = 5, 2, scen.dt
    fol, n = scen.graph.follower_indices, scen.plant.n
    scale = np.sqrt(dt * scen.noise_rate[fol])
    ref = np.empty((trials, scen.steps + 1, len(fol), n))
    for t in range(trials):
        xi = np.random.Generator(np.random.Philox(key=np.array([seed, t], np.uint64)))
        xi = xi.standard_normal((scen.steps, len(fol)))
        x = scen.init_states.reshape(-1).copy()
        ref[t, 0] = scen.init_states[fol]
        for k in range(scen.steps):
            a = np.zeros(scen.graph.node_count)
            a[fol] = scen.profile.gain_all(k * dt)
            x = x + dt * (dense_drift(scen.plant, scen.lap.full, a) @ x)
            x.reshape(-1, n)[fol, n - 1] += a[fol] * scale * xi[k]
            ref[t, k + 1] = x.reshape(-1, n)[fol]
    got = sde._run_full(scen, seed, trials)[:, :, fol]
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("run, trials", [("reduced", 1), ("reduced", 2), ("full", 1)])
def test_engines_follow_a_per_step_reference(fig1, run, trials):
    """The reduced chain e <- e - dt diag(a(k dt)) L2 e + a(k dt) sqrt(dt q)
    xi_k, and the full chain on the dense drift of all nodes, stepped one step
    at a time on the same Philox draws (keyed [seed, t], step-major), give the
    engines' paths to 1e-12 of their scale at every step, also for a single
    trial and over 207 steps, no whole number of 16-step sub-blocks."""
    scen = fig1.with_overrides(dt=0.01, t_end=2.07, sample_times=np.linspace(0.0, 2.07, 208))
    assert np.array_equal(scen.sample_steps(), np.arange(208))
    seed, dt = 5, scen.dt
    fol, lead, n = scen.graph.follower_indices, scen.graph.leader_index, scen.plant.n
    scale = np.sqrt(dt * scen.noise_rate[fol])
    ref = np.empty((trials, scen.steps + 1) + ((len(fol),) if run == "reduced" else (len(fol), n)))
    for t in range(trials):
        xi = np.random.Generator(np.random.Philox(key=np.array([seed, t], np.uint64)))
        xi = xi.standard_normal((scen.steps, len(fol)))
        e = (scen.init_states[fol] - scen.init_states[lead]) @ scen.plant.K2[0]
        x = scen.init_states.reshape(-1).copy()
        ref[t, 0] = e if run == "reduced" else scen.init_states[fol]
        for k in range(scen.steps):
            a = scen.profile.gain_all(k * dt)
            if run == "reduced":
                e = e - dt * a * (scen.lap.L2 @ e) + a * scale * xi[k]
                ref[t, k + 1] = e
            else:
                a_all = np.zeros(scen.graph.node_count)
                a_all[fol] = a
                x = x + dt * (dense_drift(scen.plant, scen.lap.full, a_all) @ x)
                x.reshape(-1, n)[fol, n - 1] += a * scale * xi[k]
                ref[t, k + 1] = x.reshape(-1, n)[fol]
    got = (sde._run_reduced(scen, seed, trials) if run == "reduced"
           else sde._run_full(scen, seed, trials)[:, :, fol])
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_merged_sample_times_fill_every_row(fig1):
    """Sample times that round to one step are merged by validation: the
    sample steps name each remaining sample once, at step rint(t / dt), and
    the engine writes every sample row with the state at that step."""
    scen = fig1.with_overrides(dt=0.003, t_end=10.0, sample_times=np.geomspace(1e-3, 10.0, 77))
    times = scen.sample_times
    assert times.size < 77
    steps = scen.sample_steps()
    assert steps.size == times.size
    assert np.array_equal(np.unique(steps), steps)
    assert np.array_equal(steps, np.rint(times / scen.dt))
    every_step = scen.with_overrides(sample_times=scen.dt * np.arange(scen.steps + 1))
    dense = sde._run_full(every_step, 4, 2)
    assert np.array_equal(sde._run_full(scen, 4, 2), dense[:, steps])


def test_followers_see_the_leader_only_through_k2_x0(fig1):
    """K2 (A + B K1) = 0 makes K2 x0(t) = K2 x0(0) the followers' only view of
    the leader: moving the leader's initial state by v with K2 v = 0 leaves
    every follower row bit-identical and moves the leader's own rows."""
    scen = fig1.with_overrides(t_end=20.0)
    lead = scen.graph.leader_index
    v = np.array([3.0, -1.0, 0.0, 0.0])
    assert scen.plant.K2[0] @ v == 0.0
    raw = json.loads(scen.raw_json)
    raw["init"]["states"][lead] = list(scen.init_states[lead] + v)
    moved = scenario_from_dict(raw)
    base, shifted = sde._run_full(scen, 6, 4), sde._run_full(moved, 6, 4)
    fol = scen.graph.follower_indices
    assert np.array_equal(base[:, :, fol], shifted[:, :, fol])
    assert not np.array_equal(base[:, :, lead], shifted[:, :, lead])


@pytest.mark.parametrize("workers", [1, 2])
def test_engines_hold_nothing_horizon_long(fig1, fig2, monkeypatch, deadline, workers):
    """A run's peak traced memory does not grow with its horizon: nothing the
    engines hold spans every step.  Each run is measured at t_end 2 and 8
    with the same 3 samples, after one warm-up run, with the one-trial run's
    second half in this process and forked."""
    monkeypatch.setattr(sde, "WORKERS", workers)
    runs = [(sde._run_full, fig1, 2), (sde._run_reduced, fig1, 2), (sde._run_full, fig2, 1)]

    def peak(run, scen, trials, t_end):
        scen = scen.with_overrides(t_end=t_end, sample_times=[0.0, 1.0, 2.0])
        tracemalloc.start()
        try:
            run(scen, 3, trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for run, scen, trials in runs:
        run(scen.with_overrides(t_end=2.0, sample_times=[0.0, 1.0, 2.0]), 3, trials)
    for run, scen, trials in runs:
        assert abs(peak(run, scen, trials, 8.0) - peak(run, scen, trials, 2.0)) < 16 * 1024


def test_reduced_requires_leader(fig2):
    with pytest.raises(sde.SimulationError):
        lf.simulate_reduced(fig2, 1)


def test_leaderless_norms_do_not_settle(fig2):
    traj = lf.simulate_full(fig2, fig2.base_seed)
    t = traj.times
    norms = np.linalg.norm(traj.states, axis=2)
    assert norms[(t >= 100.0)].max(axis=0).min() > norms[(t <= 10.0)].min(axis=0).max()


def test_trajectory_csv_format(fig1, tmp_path):
    scen = fig1.with_overrides(t_end=1.0, sample_times=[0.0, 1.0])
    traj = lf.simulate_full(scen, 2)
    path = tmp_path / "traj.csv"
    sde.trajectory_to_csv(traj, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,node,component,value"
    assert len(lines) == 1 + 2 * 5 * 4
    t, node, comp, value = lines[1].split(",")
    assert float(t) == 0.0 and node == "0" and comp == "0"
    # 17 significant digits survive a round trip
    assert float(value) == traj.states[0, 0, 0]
