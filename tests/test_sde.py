import json

import numpy as np
import pytest

import leadfollow as lf
from leadfollow import sde
from leadfollow.scenario import scenario_from_dict


def test_noiseless_consensus(fig1):
    """With all noise intensities zero the protocol drives every follower to
    the leader within the horizon."""
    scen = fig1.with_overrides(t_end=50.0, rho=0.0, sample_times=[0.0, 50.0])
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


def test_reduced_matches_oracle_mean_without_noise(fig1):
    """rho = 0 turns the reduced SDE into an ODE; a refined Euler run must land
    on the exact mean."""
    st = np.linspace(0.0, 10.0, 21)
    fine = fig1.with_overrides(t_end=10.0, rho=0.0, dt=5e-5, sample_times=st)
    red = lf.simulate_reduced(fine, 5)
    oracle = lf.evolve_moments(fig1.with_overrides(t_end=10.0, rho=0.0, sample_times=st))
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
    """Distinct (edge, component) increment streams are uncorrelated in the
    order the simulator draws them."""
    rng = sde._noise_rng(123)
    steps, E, n = 100000, 6, 4
    chunks = []
    done = 0
    while done < steps:
        nb = min(sde.BLOCK_STEPS, steps - done)
        chunks.append(rng.normal(0.0, 1.0, size=(1, nb, E, n)))
        done += nb
    dW = np.concatenate(chunks, axis=1)[0].reshape(steps, E * n)
    corr = np.corrcoef(dW.T) - np.eye(E * n)
    assert np.abs(corr).max() < 0.02


def test_sample_times_sharing_a_step_rejected(fig1):
    """Distinct sample times that snap to one step would leave a sample slot
    unwritten; every sampled entry point rejects them and names the times."""
    scen = fig1.with_overrides(t_end=2.0, trials=2, sample_times=[0.0, 2.0])
    times = [1.0, 1.0002, 2.0]
    for run in (lambda: lf.simulate_full(scen, 1, times),
                lambda: lf.evolve_moments(scen, grid=times),
                lambda: lf.monte_carlo_moments(scen, sample_times=times)):
        with pytest.raises(ValueError, match=r"\[1\.0, 1\.0002\]"):
            run()
    with pytest.raises(ValueError, match=r"\[1\.0, 1\.0\]"):
        sde._run_full(scen, 1, 2, np.array([1000, 1000, 2000]))


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
