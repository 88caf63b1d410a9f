import json

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import leadfollow as lf
from leadfollow.gains import make_profile
from leadfollow.moments import InsufficientSpanError
from leadfollow.scenario import scenario_from_dict
from leadfollow.verify import oracle_deviation_sigmas
from leadfollow import sde

from conftest import dense_drift


def test_zero_noise_covariance_and_mean(fig1):
    """Without diffusion the covariance stays zero and the mean must agree with
    an independent adaptive ODE solve of the error system."""
    st = np.linspace(0.0, 10.0, 11)
    scen = fig1.with_overrides(t_end=10.0, rho=0.0, sample_times=st)
    series, cov = lf.evolve_moments(scen, return_cov=True)
    assert np.abs(cov).max() == 0.0

    m0 = (scen.init_states[1:] - scen.init_states[0]).reshape(-1)
    sol = solve_ivp(
        lambda t, m: dense_drift(scen.plant, scen.lap.L2, scen.profile.gain_all(t)) @ m,
        (0.0, 10.0), m0, t_eval=st, rtol=1e-11, atol=1e-12,
    )
    assert np.abs(series.mean_err.reshape(st.size, -1) - sol.y.T).max() <= 1e-8


def test_zero_initial_error_mean_stays_zero(fig1):
    raw = json.loads(fig1.raw_json)
    raw["init"]["states"] = [raw["init"]["states"][0]] * 5
    raw["integration"]["t_end"] = 5.0
    raw["integration"]["sample_times"] = [0.0, 2.5, 5.0]
    scen = scenario_from_dict(raw)
    series = lf.evolve_moments(scen)
    assert np.abs(series.mean_err).max() == 0.0
    assert series.mse[1:].min() > 0.0  # noise still feeds the second moment


def test_monte_carlo_agrees_at_spot_times(fig1, fig1_mc, fig1_oracle):
    for target in (5.0, 20.0, 80.0):
        s = int(np.argmin(np.abs(fig1_mc.times - target)))
        gap = np.abs(fig1_mc.mse[s] - fig1_oracle.mse[s])
        assert np.all(gap <= 3.0 * fig1_mc.stderr[s])


def test_covariance_symmetric_psd(fig1):
    scen = fig1.with_overrides(t_end=10.0, sample_times=np.linspace(0.0, 10.0, 21))
    _, cov = lf.evolve_moments(scen, return_cov=True)
    for P in cov:
        assert np.abs(P - P.T).max() <= 1e-10
        assert np.linalg.eigvalsh(0.5 * (P + P.T)).min() >= -1e-8


def test_oracle_mean_matches_noiseless_path(fig1):
    """The path simulator converges at first order; the dt-halving Richardson
    extrapolation of its noiseless run lands on the oracle mean."""
    st = np.linspace(0.0, 10.0, 21)
    coarse = fig1.with_overrides(t_end=10.0, rho=0.0, dt=1e-3, sample_times=st)
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
    series, cov = lf.evolve_moments(scen, return_cov=True)
    K2 = scen.plant.K2[0]
    IK = np.kron(np.eye(4), K2.reshape(1, 4))
    paths = sde._run_reduced(scen, scen.base_seed, scen.trials)
    sq = (paths ** 2).sum(axis=2)
    mc = sq.mean(axis=0)
    se = sq.std(axis=0, ddof=1) / np.sqrt(scen.trials)
    for s in range(paths.shape[1]):
        proj = series.mean_err[s] @ K2
        exact = np.trace(IK @ cov[s] @ IK.T) + proj @ proj
        assert abs(mc[s] - exact) <= 3.0 * se[s]


def test_rate_check_reference_series(fig1, fig1_oracle, fig1_constants):
    rep = lf.oracle_rate_check(fig1_oracle, fig1.profile, fig1_constants,
                               tail=(20.0, 100.0))
    assert np.all(rep.ms_witness_spread <= 10.0)
    assert np.all(np.abs(rep.ms_witness_slope) <= 0.15)
    assert rep.all_bounded


def test_rate_check_zero_noise_mean_witness(fig1, fig1_constants):
    scen = fig1.with_overrides(rho=0.0)
    series = lf.evolve_moments(scen)
    rep = lf.oracle_rate_check(series, fig1.profile, fig1_constants)
    assert np.all(np.isfinite(rep.mean_witness_log))
    assert np.all(np.diff(rep.mean_witness_log, axis=0) < 0)


def test_rate_check_flags_wrong_exponent(fig1, fig1_oracle, fig1_constants):
    """Scoring a beta = 0.4 series against beta = 0.8 must trip the witness."""
    triples = np.column_stack([fig1.profile.mu, fig1.profile.scale, fig1.profile.shift])
    wrong = make_profile(triples, 0.8, agent_ids=fig1.profile.agent_ids)
    rep = lf.oracle_rate_check(fig1_oracle, wrong, fig1_constants)
    assert not rep.all_bounded


def test_rate_check_needs_two_decades(fig1, fig1_constants):
    scen = fig1.with_overrides(t_end=5.0, sample_times=np.linspace(0.5, 5.0, 20))
    series = lf.evolve_moments(scen)
    with pytest.raises(InsufficientSpanError):
        lf.oracle_rate_check(series, fig1.profile, fig1_constants)
