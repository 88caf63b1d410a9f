import json
import os
import signal
import tracemalloc

import numpy as np
import pytest

import leadfollow as lf
from leadfollow import sde, verify
from leadfollow.scenario import scenario_from_dict

from conftest import dense_noise_routing, noiseless


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
    noise = sde._Noise(123, trials, np.ones(M))
    chunks = []
    for k0 in range(0, steps, sde.BLOCK_STEPS):
        nb = min(sde.BLOCK_STEPS, steps - k0)
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
    formed per block from the step index alone, so the block size changes
    nothing, also with block boundaries that split no sample interval evenly."""
    scen = _invariance_scenario(fig1)
    leaderless = fig2.with_overrides(t_end=2.0, sample_times=np.linspace(0.0, 2.0, 21))
    assert sde.BLOCK_STEPS == 512
    full, red = sde._run_full(scen, 5, 4), sde._run_reduced(scen, 5, 4)
    free = sde._run_full(leaderless, 5, 4)
    for block_steps in (256, 7):
        monkeypatch.setattr(sde, "BLOCK_STEPS", block_steps)
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


def test_noise_channels_match_dense_routing(fig1):
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
    q = sde.noise_channels(scen, fol)
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
        assert exc.value.t < sde.BLOCK_STEPS * scen.dt
        # The step before the named one is still finite.
        t_before = exc.value.t - scen.dt
        before = scen.with_overrides(t_end=t_before, sample_times=[t_before])
        assert np.isfinite(sde._run_full(before, 1, 3)).all()


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


def test_engines_hold_nothing_horizon_long(fig1, fig2):
    """A run's peak traced memory does not grow with its horizon: nothing the
    engines hold spans every step.  Each run is measured at t_end 2 and 8
    with the same 3 samples, after one warm-up run."""
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
