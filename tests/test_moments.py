import json

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import leadfollow as lf
from leadfollow.scenario import scenario_from_dict
from leadfollow import integrate, moments, sde

from conftest import dense_drift, noiseless, reference_moments


def _moments(scen):
    """The oracle's mean errors and covariances at the sample times."""
    return moments._propagate(scen, moments.max_step(scen))


def test_zero_noise_covariance_and_mean(fig1):
    """Without diffusion the covariance stays zero and the mean must agree with
    an independent adaptive ODE solve of the error system."""
    st = np.linspace(0.0, 10.0, 11)
    scen = noiseless(fig1, t_end=10.0, sample_times=st)
    mean_err, cov = _moments(scen)
    assert np.abs(cov).max() == 0.0

    m0 = (scen.init_states[1:] - scen.init_states[0]).reshape(-1)
    sol = solve_ivp(
        lambda t, m: dense_drift(scen.plant, scen.lap.L2, scen.profile.gain_all(t)) @ m,
        (0.0, 10.0), m0, t_eval=st, rtol=1e-11, atol=1e-12,
    )
    assert np.abs(mean_err.reshape(st.size, -1) - sol.y.T).max() <= 1e-8


def test_zero_initial_error_mean_stays_zero(fig1):
    raw = json.loads(fig1.raw_json)
    raw["init"]["states"] = [raw["init"]["states"][0]] * 5
    raw["integration"]["t_end"] = 5.0
    raw["integration"]["sample_times"] = [0.0, 2.5, 5.0]
    scen = scenario_from_dict(raw)
    series = lf.evolve_moments(scen)
    assert np.abs(series.mean_err).max() == 0.0
    assert series.mse[1:].min() > 0.0  # noise still feeds the second moment


def test_oracle_matches_reference_rk4(fig1, monkeypatch):
    """The propagator form m <- R m, P <- R P R^T + S agrees with per-stage
    RK4 on the moment ODEs (dense drift and noise routing) on the oracle's
    grid: both are fourth order, so their gap shrinks like the step^4.  At a
    quarter of the default step it is about 1e-10 (2.5e-8 at the default,
    where per-stage RK4 on P, with the doubled rates of F P + P F^T, carries
    about 16 times the oracle's own error)."""
    monkeypatch.setattr(moments, "STEP_SCALE", 0.03 / 4.0)
    scen = fig1.with_overrides(t_end=20.0)
    assert scen.sample_times.size == 40 and scen.sample_times[0] == 0.5
    series = lf.evolve_moments(scen)
    mean, mse = reference_moments(scen)
    assert (np.abs(series.mse - mse) / mse).max() <= 1e-9
    assert np.abs(series.mean_err - mean).max() <= 1e-9 * np.abs(mean).max()


def test_oracle_invariant_to_block_steps(fig1, monkeypatch):
    scen = fig1.with_overrides(t_end=3.0, sample_times=np.linspace(0.0, 3.0, 7))
    series, cov = lf.evolve_moments(scen), _moments(scen)[1]
    assert integrate.SUBS == 16
    for subs in (1, 3, 7):
        monkeypatch.setattr(integrate, "SUBS", subs)
        again, cov_again = lf.evolve_moments(scen), _moments(scen)[1]
        assert np.array_equal(again.mse, series.mse)
        assert np.array_equal(again.mean_err, series.mean_err)
        assert np.array_equal(cov_again, cov)
        assert again.step_error == series.step_error


def test_oracle_independent_of_sde_step(fig1):
    """The oracle steps on its own grid: for sample times on both SDE grids,
    dt = 1e-3 and 5e-4 give the same oracle bit for bit."""
    st = [0.0, 0.25, 0.5, 1.0, 2.0, 3.0]
    coarse = fig1.with_overrides(t_end=3.0, dt=1e-3, sample_times=st)
    fine = coarse.with_overrides(dt=5e-4)
    assert np.array_equal(coarse.sample_times, fine.sample_times)
    a, cov_a = lf.evolve_moments(coarse), _moments(coarse)[1]
    b, cov_b = lf.evolve_moments(fine), _moments(fine)[1]
    assert np.array_equal(a.mse, b.mse)
    assert np.array_equal(a.mean_err, b.mean_err)
    assert np.array_equal(cov_a, cov_b)


def test_oracle_grid_lands_on_sample_times(fig1):
    """Each interval between samples (and from 0 to the first) is split into
    equal steps no longer than h_max, and the grid hits every sample time."""
    scen = fig1.with_overrides(t_end=20.0)
    h_max = moments.max_step(scen)
    assert h_max == pytest.approx(0.01, rel=1e-6)  # 0.03 / rho(F(a(0))), rho = 3
    t, slot = moments.step_grid(scen.sample_times, h_max)
    assert np.array_equal(t[slot >= 0], scen.sample_times)
    assert np.array_equal(slot[slot >= 0], np.arange(scen.sample_times.size))
    assert t[0] == 0.0 and np.diff(t).max() <= h_max * (1.0 + 1e-6)
    assert t.size - 1 == 2015
    assert np.array_equal(lf.evolve_moments(scen).times, scen.sample_times)


def test_oracle_step_follows_fast_gains(fig1):
    """A gain whose shift is 0.01 decays at beta c / d = 160 at t = 0, far
    faster than F's spectral radius (19): h_max follows the gain, and the
    oracle's error estimate stays below 1e-7 (the radius alone gives 1.5e-5)."""
    raw = json.loads(fig1.raw_json)
    raw["gains"]["agents"][4] = [1.5, 4.0, 0.01]
    raw["integration"]["t_end"] = 1.0
    raw["integration"]["sample_times"] = {"kind": "logspace", "start": 0.01, "stop": 1.0,
                                          "count": 20}
    scen = scenario_from_dict(raw)
    assert moments.max_step(scen) == pytest.approx(0.03 / 160.0)
    assert lf.evolve_moments(scen).step_error <= 1e-7


def test_oracle_step_halving_error(fig1, monkeypatch):
    """The oracle's own discretization error, measured: against a run at a
    quarter of the finest step, the mse error shrinks at least 12-fold per
    halving of the oracle's step (fourth order gives 16), and every sampled
    covariance is positive semidefinite to round-off."""
    scen = fig1.with_overrides(t_end=5.0, sample_times=np.linspace(0.0, 5.0, 26))
    runs = []
    for factor in (4.0, 2.0, 1.0, 0.25):
        monkeypatch.setattr(moments, "STEP_SCALE", 0.03 * factor)
        runs.append(_moments(scen))
    ref = moments._mse(*runs[-1])
    errors = [np.abs(moments._mse(*run) - ref).max() / ref.max() for run in runs[:-1]]
    assert errors[0] / errors[1] >= 12.0
    assert errors[1] / errors[2] >= 12.0
    for _, cov in runs:
        eig = np.linalg.eigvalsh(cov)
        assert np.all(eig[:, 0] >= -1e-12 * eig[:, -1])


def test_oracle_step_error_estimate(fig1, monkeypatch):
    """The oracle's Richardson estimate of its own relative mse error lies
    within a factor of 3 of the error against a run at a quarter of its step."""
    scen = fig1.with_overrides(t_end=5.0)
    series = lf.evolve_moments(scen)
    assert moments.STEP_SCALE == 0.03
    monkeypatch.setattr(moments, "STEP_SCALE", 0.03 / 4.0)
    ref = lf.evolve_moments(scen).mse
    true = (np.abs(series.mse - ref) / ref).max()
    assert true / 3.0 <= series.step_error <= 3.0 * true


def test_monte_carlo_agrees_at_spot_times(fig1, fig1_mc, fig1_oracle):
    for target in (5.0, 20.0, 80.0):
        s = int(np.argmin(np.abs(fig1_mc.times - target)))
        gap = np.abs(fig1_mc.mse[s] - fig1_oracle.mse[s])
        assert np.all(gap <= 3.0 * fig1_mc.stderr[s])


def test_covariance_symmetric_psd(fig1):
    scen = fig1.with_overrides(t_end=10.0, sample_times=np.linspace(0.0, 10.0, 21))
    _, cov = _moments(scen)
    for P in cov:
        assert np.abs(P - P.T).max() <= 1e-10
        assert np.linalg.eigvalsh(0.5 * (P + P.T)).min() >= -1e-8


def test_oracle_mean_matches_noiseless_path(fig1):
    """The path simulator converges at first order; the dt-halving Richardson
    extrapolation of its noiseless run lands on the oracle mean."""
    st = np.linspace(0.0, 10.0, 21)
    coarse = noiseless(fig1, t_end=10.0, dt=1e-3, sample_times=st)
    fine = coarse.with_overrides(dt=5e-4)
    e1 = lf.simulate_full(coarse, 3).states
    e2 = lf.simulate_full(fine, 3).states
    err1 = e1[:, 1:, :] - e1[:, [0], :]
    err2 = e2[:, 1:, :] - e2[:, [0], :]
    oracle = lf.evolve_moments(coarse)
    assert np.abs(2.0 * err2 - err1 - oracle.mean_err).max() <= 1e-6


def test_reduced_space_second_moment_consistency(fig1):
    """trace((I x K2) P (I x K2)^T) plus the squared projected mean equals the
    reduced-path Monte Carlo estimate of ||Xhat||^2 within 3 standard errors."""
    scen = fig1.with_overrides(t_end=20.0, trials=300, base_seed=9,
                               sample_times=[5.0, 10.0, 20.0])
    mean_err, cov = _moments(scen)
    K2 = scen.plant.K2[0]
    IK = np.kron(np.eye(4), K2.reshape(1, 4))
    paths = sde._run_reduced(scen, scen.base_seed, scen.trials)
    sq = (paths ** 2).sum(axis=2)
    mc = sq.mean(axis=0)
    se = sq.std(axis=0, ddof=1) / np.sqrt(scen.trials)
    for s in range(paths.shape[1]):
        proj = mean_err[s] @ K2
        exact = np.trace(IK @ cov[s] @ IK.T) + proj @ proj
        assert abs(mc[s] - exact) <= 3.0 * se[s]


def test_rate_check_reference_series(fig1, fig1_oracle):
    """The oracle's mse t^beta on [20, 100] is bounded: its spread is at most
    10 and the log-log slope of mse t^beta at most 0.15 in magnitude."""
    t = fig1_oracle.times
    mask = (t >= 20.0) & (t <= 100.0)
    tt = t[mask]
    assert tt.size >= 4
    witness = fig1_oracle.mse[mask] * tt[:, None] ** fig1.profile.beta
    assert np.all(witness.max(axis=0) / witness.min(axis=0) <= 10.0)
    logt = np.log(tt)
    coef, *_ = np.linalg.lstsq(np.column_stack([logt, np.ones_like(logt)]),
                               np.log(witness), rcond=None)
    assert np.all(np.abs(coef[0]) <= 0.15)


def test_rate_check_zero_noise_mean_witness(fig1, fig1_constants):
    """Without noise, log||mean err|| + mu1 (lambda_min - eps) / (1 - beta)
    t^(1-beta) strictly decreases over the tail [t_end / 5, t_end]."""
    series = lf.evolve_moments(noiseless(fig1))
    t, beta = series.times, fig1.profile.beta
    mask = t >= t.max() / 5.0
    coeff = fig1.profile.mu1 * (fig1_constants.lambda_min - fig1_constants.eps) / (1.0 - beta)
    witness = (np.log(np.linalg.norm(series.mean_err[mask], axis=2))
               + coeff * t[mask, None] ** (1.0 - beta))
    assert np.all(np.isfinite(witness))
    assert np.all(np.diff(witness, axis=0) < 0)
