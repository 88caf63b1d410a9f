import numpy as np
import pytest
from scipy.linalg import expm

import leadfollow as lf
from leadfollow.gains import make_profile
from leadfollow.plant import NotHurwitzError
from leadfollow.rates import (
    GridMismatchError, WindowTooNarrowError, jordan_log_norms, jordan_transition,
    jordan_transition_ode,
)
from leadfollow import integrate, rates, verify
from leadfollow.matrices import companion
from leadfollow.series import MomentSeries

from conftest import noiseless, rk4_reference


def _synthetic_series(times, mse):
    times = np.asarray(times, dtype=float)
    mse = np.asarray(mse, dtype=float)
    return MomentSeries(
        times=times, follower_ids=(1,), mean_err=np.zeros((times.size, 1, 2)),
        mse=mse[:, None], halfwidth=None, provenance="oracle", step_error=None,
    )


def test_monte_carlo_preconditions(fig1):
    with pytest.raises(ValueError):
        lf.monte_carlo_moments(fig1.with_overrides(trials=1))


def test_monte_carlo_rejects_leaderless(fig2):
    """A leaderless scenario has no follower errors: its node 0 is a mere
    reference node, not a leader."""
    with pytest.raises(ValueError, match="leader-following"):
        lf.monte_carlo_moments(fig2.with_overrides(t_end=1.0, trials=2))


def test_monte_carlo_zero_noise(fig1):
    scen = noiseless(fig1, t_end=5.0, trials=5, sample_times=[0.0, 5.0])
    mc = lf.monte_carlo_moments(scen)
    assert np.abs(mc.halfwidth).max() <= 1e-12
    det = lf.simulate_full(scen, scen.base_seed)
    err = det.states[:, 1:, :] - det.states[:, [0], :]
    assert np.allclose(mc.mean_err, err, atol=1e-12)


def test_fit_exact_power_law():
    t = np.geomspace(1.0, 100.0, 40)
    fit = lf.fit_power_law(_synthetic_series(t, 7.0 * t ** -0.4), (1.0, 100.0))
    assert fit.slope[0] == pytest.approx(-0.4, abs=1e-10)
    assert fit.intercept[0] == pytest.approx(np.log(7.0), abs=1e-10)

    fit = lf.fit_power_law(_synthetic_series(t, np.full(t.size, 2.0)), (1.0, 100.0))
    assert fit.slope[0] == pytest.approx(0.0, abs=1e-12)


def test_fit_window_too_narrow():
    t = np.geomspace(1.0, 100.0, 40)
    series = _synthetic_series(t, 7.0 * t ** -0.4)
    with pytest.raises(WindowTooNarrowError):
        lf.fit_power_law(series, (10.0, 20.0))


def test_reference_slope_window(fig1_oracle):
    fit = lf.fit_power_law(fig1_oracle, (20.0, 100.0))
    assert np.all(fit.slope >= -0.55)
    assert np.all(fit.slope <= -0.25)


def test_slope_stable_under_window_shift(fig1):
    """Extending the horizon and shifting the fit window moves the slope only
    marginally."""
    scen = fig1.with_overrides(t_end=150.0,
                               sample_times=np.geomspace(0.5, 150.0, 60))
    series = lf.evolve_moments(scen)
    a = lf.fit_power_law(series, (20.0, 100.0))
    b = lf.fit_power_law(series, (30.0, 150.0))
    assert np.abs(a.slope - b.slope).max() <= 0.05


def test_envelope_check_limits(fig1_oracle):
    assert np.all(lf.envelope_check(fig1_oracle, 1e12, 0.4, 5.0) == 0.0)
    assert np.all(lf.envelope_check(fig1_oracle, 0.0, 0.4, 5.0) == 1.0)


def test_envelope_check_antitone(fig1_oracle):
    fracs = [lf.envelope_check(fig1_oracle, C, 0.4, 5.0) for C in
             (0.1, 1.0, 5.0, 20.0, 100.0)]
    for lo, hi in zip(fracs[:-1], fracs[1:]):
        assert np.all(hi <= lo)


def test_jordan_scalar_constant_gain():
    grid = np.linspace(1.0, 6.0, 501)
    tm = jordan_transition(1.0, 1, grid - 1.0)
    assert np.allclose(tm[:, 0, 0], np.exp(-(grid - 1.0)), atol=1e-12)


def test_jordan_block_closed_form():
    # r = 2, lambda = 1, a = 1 from t0 = 0: off-diagonal entry is -t e^{-t}
    grid = np.linspace(0.0, 5.0, 2001)
    tm = jordan_transition(1.0, 2, grid)
    assert np.allclose(tm[:, 0, 1], -grid * np.exp(-grid), atol=1e-15)
    assert np.allclose(tm[:, 1, 0], 0.0)
    assert np.allclose(tm[:, 0, 0], tm[:, 1, 1])


@pytest.mark.parametrize("lam, r", [(1.0, 1), (0.7 - 0.4j, 2), (2.5 + 1.0j, 4), (0.3, 6)])
def test_jordan_values_match_expm(lam, r):
    """The closed form is expm(-u J(lam)) at every grid point."""
    profile = make_profile([(1.5, 1.0, 0.5), (0.8, 3.0, 0.2)], 0.6)
    grid = np.geomspace(0.5, 50.0, 301)
    u = profile.envelope_integral(0.5, grid)
    J = np.eye(r) * lam + np.eye(r, k=1)
    values = jordan_transition(lam, r, u)
    ref = np.array([expm(-uk * J) for uk in u])
    assert np.abs(values - ref).max() <= 1e-12


def test_jordan_recursion_vs_ode_battery():
    rng = np.random.default_rng(3)
    for _ in range(10):
        lam = complex(rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0))
        r = int(rng.integers(1, 5))
        mu, c, d = rng.uniform(0.3, 2.0), rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
        profile = make_profile([[mu, c, d]], rng.uniform(0.2, 0.8))
        grid = np.linspace(0.5, 10.0, 8001)
        tm = jordan_transition(lam, r, profile.envelope_integral(0.5, grid))
        ode = jordan_transition_ode(lam, profile.envelope, r, grid)
        assert np.abs(tm - ode).max() <= 1e-10


def test_jordan_ode_matches_reference_rk4(monkeypatch):
    """The step-matrix RK4 is the per-stage RK4 of Xi' = -a(t) J Xi to
    round-off, bit for bit the same at any block length."""
    lam, r, t0 = 1.2 + 0.3j, 4, 0.5
    gain = lambda t: 1.5 * (np.asarray(t) + 0.5) ** -0.3  # noqa: E731
    grid = np.linspace(t0, 10.0, 8001)
    ode = jordan_transition_ode(lam, gain, r, grid)
    J = np.eye(r, dtype=complex) * lam + np.eye(r, k=1)
    h = np.diff(grid)
    halves = np.append(np.column_stack([grid[:-1], grid[:-1] + 0.5 * h]).ravel(), grid[-1])
    ref = rk4_reference(lambda a, y: -a * (J @ y), np.eye(r, dtype=complex), gain(halves), h,
                        np.arange(grid.size))
    assert np.abs(ode - ref).max() <= 1e-12
    for subs in (1, 3, 7):
        monkeypatch.setattr(integrate, "SUBS", subs)
        assert np.array_equal(jordan_transition_ode(lam, gain, r, grid), ode)


@pytest.mark.parametrize("lam, r", [(0.8 - 0.6j, 1), (1.3, 1), (0.9, 3)])
def test_jordan_ode_real_form_matches_complex_rk4(lam, r):
    """The real-form RK4 is the complex per-stage RK4 to round-off, also for
    a one-dimensional block and for a real eigenvalue."""
    gain = lambda t: 1.5 * (np.asarray(t) + 0.5) ** -0.3  # noqa: E731
    grid = np.linspace(0.5, 10.0, 2001)
    ode = jordan_transition_ode(lam, gain, r, grid)
    J = np.eye(r, dtype=complex) * lam + np.eye(r, k=1)
    h = np.diff(grid)
    halves = np.append(np.column_stack([grid[:-1], grid[:-1] + 0.5 * h]).ravel(), grid[-1])
    ref = rk4_reference(lambda a, y: -a * (J @ y), np.eye(r, dtype=complex), gain(halves), h,
                        np.arange(grid.size))
    assert ode.shape == ref.shape
    assert np.abs(ode - ref).max() <= 1e-12


@pytest.mark.parametrize("lam", [1.3, 0.8 - 0.6j])
@pytest.mark.parametrize("r", [1, 2, 4])
def test_jordan_ode_constant_gain_is_a_taylor_power(lam, r):
    """At a constant gain a on a uniform grid every RK4 step is T4(-h a J),
    T4 the degree-4 Taylor polynomial of exp, so k steps are its k-th power."""
    h, a = 2.0 ** -7, 1.5
    ode = jordan_transition_ode(lam, lambda t: np.full(np.shape(t), a), r, np.arange(257) * h)
    Z = -h * a * (np.eye(r) * lam + np.eye(r, k=1))
    T4 = sum(np.linalg.matrix_power(Z, i) / f for i, f in enumerate((1, 1, 2, 6, 24)))
    for k in (0, 1, 2, 5, 64, 256):
        ref = np.linalg.matrix_power(T4, k)
        assert np.abs(ode[k] - ref).max() <= 1e-13 * np.abs(ref).max()


def test_jordan_check_runs_no_matrix_rk4(monkeypatch):
    """The Jordan self-test takes its RK4 from the scalar step polynomial: it
    passes, with its usual value, when the matrix RK4 cannot run."""
    def no_matrix_rk4(*args, **kwargs):
        raise AssertionError("rk4_path called")

    monkeypatch.setattr(integrate, "rk4_path", no_matrix_rk4)
    monkeypatch.setattr(rates, "rk4_path", no_matrix_rk4)
    res = verify.check_jordan_recursion()
    assert res.passed and 1e-12 < res.value < 3e-12


def test_batched_transition_matches_per_point_definition():
    grid = np.linspace(0.5, 10.0, 8001)
    u = make_profile([(1.5, 1.0, 0.5)], 0.3).envelope_integral(0.5, grid)
    values = jordan_transition(1.2 + 0.3j, 3, u)
    per_point = [np.log(np.linalg.norm(values[s], 2)) for s in range(grid.size)]
    assert np.abs(jordan_log_norms(1.2 + 0.3j, 3, u) - per_point).max() <= 1e-12

    values = jordan_transition(1.2 + 0.3j, 4, u)
    for i in range(4):
        for j in range(4):
            expected = values[:, 0, j - i] if j >= i else 0.0
            assert np.array_equal(values[:, i, j], np.broadcast_to(expected, grid.shape))


def test_transition_bound_scalar_exact(fig1):
    """For r = 1 the normalized log ratio is exactly -eps * int(envelope):
    strictly decreasing, so the witness passes."""
    grid = np.geomspace(1.0, 100.0, 4001)
    maxima = lf.transition_bound_check([(1.0, 1)], fig1.profile, 0.1, grid)
    u = fig1.profile.envelope_integral(1.0, grid)
    log_ratio = jordan_log_norms(1.0, 1, u) + (1.0 - 0.1) * u
    assert np.allclose(log_ratio, -0.1 * u, atol=1e-12)
    assert maxima.shape == (1, 2)
    (head, tail), = maxima
    assert head == pytest.approx(0.0, abs=1e-12)
    assert tail == pytest.approx(-0.1 * u[grid >= 10.0].min(), abs=1e-12)
    assert tail < head


def test_transition_bound_reports_decades_of_the_full_grid(fig1):
    """Evaluated on its first and last decades only, the witness is the one
    taken from the whole grid, bit for bit."""
    grid = np.geomspace(1.0, 1000.0, 4001)
    u = fig1.profile.envelope_integral(1.0, grid)
    log_ratio = jordan_log_norms(0.9, 3, u) + (0.9 - 0.1) * u
    expected = [log_ratio[grid <= 10.0].max(), log_ratio[grid >= 100.0].max()]
    assert np.array_equal(lf.transition_bound_check([(0.9, 3)], fig1.profile, 0.1, grid)[0],
                          expected)


@pytest.mark.parametrize("r", [1, 2, 4, 6])
def test_scaled_band_matches_power_form(r):
    """The running products of 1, -u/1, -u/2, ... are (-u)^i / i! to a few ulp."""
    u = np.append(0.0, np.geomspace(1e-3, 300.0, 2001))
    i = np.arange(r)
    power = (-u[:, None]) ** i / np.cumprod(np.maximum(i, 1))
    assert np.allclose(rates._scaled_band(r, u), power, rtol=4 * np.finfo(float).eps, atol=0.0)


def test_transition_bound_preconditions(fig1):
    grid = np.geomspace(1.0, 10.0, 101)
    with pytest.raises(ValueError):
        lf.transition_bound_check([(0.5 + 0.0j, 1)], fig1.profile, 0.6, grid)
    with pytest.raises(ValueError):
        lf.transition_bound_check([(-1.0, 1)], fig1.profile, 0.1, grid)


def test_transition_bound_jordan_block(fig1):
    grid = np.geomspace(1.0, 1000.0, 20001)
    (head, tail), = lf.transition_bound_check([(1.0, 3)], fig1.profile, 0.5, grid)
    assert tail < head


def test_filter_constant_drive(fig1):
    b = fig1.plant.K2[0]
    t = np.arange(0.0, 50.0 + 1e-9, 0.01)
    states = lf.filter_response(b, t, np.full(t.size, 2.0), [0.5, -0.5, 1.0])
    assert abs(states[-1, 0] - 2.0 / b[0]) <= 1e-4
    assert np.abs(states[-1, 1:3]).max() <= 1e-4


def test_filter_exponential_tail(fig1):
    b = fig1.plant.K2[0]
    t = np.arange(0.0, 100.0 + 1e-9, 0.005)
    drive = 2.0 + np.exp(-t ** 0.4)
    states = lf.filter_response(b, t, drive, np.zeros(3))
    ratio = np.abs(states[:, 0] - 2.0) * np.exp(t ** 0.4)
    head = ratio[(t >= 5.0) & (t <= 10.0)].max()
    tail = ratio[(t >= 50.0) & (t <= 100.0)].max()
    assert tail <= 1.05 * head


def test_filter_power_tail(fig1):
    b = fig1.plant.K2[0]
    t = np.arange(0.01, 100.0 + 1e-9, 0.005)
    drive = 2.0 + t ** -0.2  # squared deviation decays like t^(-0.4)
    states = lf.filter_response(b, t, drive, np.zeros(3))
    witness = (states[:, 0] - 2.0 / b[0]) ** 2 * t ** 0.4
    head = witness[(t >= 5.0) & (t <= 10.0)].max()
    tail = witness[(t >= 50.0) & (t <= 100.0)].max()
    assert tail <= 1.05 * head


def test_filter_matches_reference_rk4(fig1, monkeypatch):
    """The augmented step matrices carry the drive exactly as the per-stage
    RK4 of xi' = C xi + e_n z does, bit for bit the same at any block length."""
    b = fig1.plant.K2[0]
    t = np.arange(0.0, 20.0 + 1e-9, 0.005)
    drive = 2.0 + np.exp(-t ** 0.4)
    init = [0.5, -0.5, 1.0]
    states = lf.filter_response(b, t, drive, init)
    comp = companion(b)
    stages = np.empty(2 * t.size - 1)
    stages[0::2] = drive
    stages[1::2] = 0.5 * (drive[:-1] + drive[1:])
    ref = rk4_reference(lambda u, y: comp @ y + [0.0, 0.0, u], init, stages, 0.005,
                        np.arange(t.size))
    assert np.abs(states[:, :3] - ref).max() <= 1e-12 * np.abs(ref).max()
    for subs in (1, 3, 7):
        monkeypatch.setattr(integrate, "SUBS", subs)
        assert np.array_equal(lf.filter_response(b, t, drive, init), states)


def test_filter_nonuniform_grid_matches_exact_constant_drive(fig1):
    """On an increasing grid refined near 0, the response to a constant drive
    is the exact solution expm(t A) (init, 1) of the augmented companion
    system A = [[C, e_n z], [0, 0]]."""
    b = fig1.plant.K2[0]
    n = b.size - 1
    t = 20.0 * np.linspace(0.0, 1.0, 2001) ** 2
    init = np.array([0.5, -0.5, 1.0])
    states = lf.filter_response(b, t, np.full(t.size, 2.0), init)
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = companion(b)
    A[n - 1, n] = 2.0
    exact = np.array([expm(tk * A) @ np.append(init, 1.0) for tk in t])[:, :n]
    assert np.abs(states[:, :n] - exact).max() <= 1e-9


def test_filter_rejections():
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(NotHurwitzError):
        lf.filter_response([-1.0, 1.0], t, np.zeros(t.size), [0.0])
    with pytest.raises(GridMismatchError):
        lf.filter_response([1.0, 1.0], t, np.zeros(5), [0.0])
    with pytest.raises(GridMismatchError):
        lf.filter_response([1.0, 1.0], t[::-1], np.zeros(t.size), [0.0])
    with pytest.raises(GridMismatchError):
        lf.filter_response([1.0, 1.0], t, np.zeros(t.size), [0.0, 0.0])
