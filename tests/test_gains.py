import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from leadfollow.gains import (
    BadExponentError, GainError, NonPositiveParamError, NonPositiveSpectrumError,
    decay_dominance_log_ratios, make_profile, rate_constants,
)

FIG1_FOLLOWER_TRIPLES = [
    (1.2, 1.0, 1.0),
    (1.5, 3.0, 1.0),
    (0.6, 1.0, 2.0),
    (1.5, 4.0, 1.0),
]


@pytest.fixture()
def follower_profile():
    return make_profile(FIG1_FOLLOWER_TRIPLES, 0.4)


def test_reference_profile_constants(follower_profile):
    p = follower_profile
    expected_k = [1.2, 1.5 * 3.0 ** -0.4, 0.6, 1.5 * 4.0 ** -0.4]
    assert np.allclose(p.k, expected_k, atol=1e-12)
    assert np.allclose(p.k, [1.2, 0.9666, 0.6, 0.8615], atol=5e-4)
    assert np.allclose(p.c, [1.0, 0.8055, 0.5, 0.7179], atol=5e-4)
    assert p.mu1 == pytest.approx(0.6)
    assert p.c.max() == 1.0


def test_single_agent_profile():
    p = make_profile([(1.0, 1.0, 1.0)], 0.5)
    assert np.array_equal(p.c, [1.0])
    assert p.mu1 == 1.0


def test_profile_rejections():
    with pytest.raises(BadExponentError):
        make_profile([(1.0, 1.0, 1.0)], 1.2)
    with pytest.raises(BadExponentError):
        make_profile([(1.0, 1.0, 1.0)], 0.0)
    with pytest.raises(NonPositiveParamError):
        make_profile([(1.0, -1.0, 1.0)], 0.4)
    with pytest.raises(GainError):
        make_profile([(1.0, 1.0)], 0.4)


def test_gain_values_at_zero(follower_profile):
    assert follower_profile.gain_all(0.0)[:2] == pytest.approx([1.2, 1.5])


def test_gain_asymptotics(follower_profile):
    p = follower_profile
    t = 1e6
    ratio = p.gain_all(t) / (p.k * t ** -0.4)
    assert ratio == pytest.approx(np.ones(4), abs=1e-3)


def test_envelope_dominates_and_is_attained(follower_profile):
    p = follower_profile
    ts = np.linspace(0.0, 50.0, 201)
    gains = p.gain_all(ts)
    env = p.envelope(ts)
    assert np.all(env[:, None] >= gains - 1e-15)
    assert np.all(np.isclose(env, gains.max(axis=-1)))


def test_ratio_limits(follower_profile):
    p = follower_profile
    assert p.gain_all(1e5) / p.envelope(1e5) == pytest.approx(p.c, abs=1e-2)


def test_rate_constants_scalar():
    p = make_profile([(1.0, 1.0, 1.0)], 0.4)
    consts = rate_constants(p, [[1.0]])
    assert consts.lambda_min == pytest.approx(1.0)
    assert consts.eps == pytest.approx(0.5)  # min{1, lambda_min}/2


def test_rate_constants_reference(follower_profile):
    L2 = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 2.0, 0.0, -1.0],
        [-2.0, 0.0, 2.0, 0.0],
        [-1.0, 0.0, -1.0, 2.0],
    ])
    consts = rate_constants(follower_profile, L2)
    assert consts.lambda_min > 0
    assert consts.lambda_min == pytest.approx(1.0, abs=1e-9)


def test_rate_constants_bad_spectrum(follower_profile):
    with pytest.raises(NonPositiveSpectrumError):
        rate_constants(follower_profile, np.zeros((4, 4)))


def test_decay_dominance(follower_profile):
    """The integrated-envelope exponential beats t^(-beta): log ratios strictly
    decrease and the ratio at 1e4 sits far below 1e-2."""
    ratios = decay_dominance_log_ratios(follower_profile, 1.0, [1e2, 1e3, 1e4])
    assert np.all(np.diff(ratios) < 0)
    assert ratios[-1] < np.log(1e-2)


def _quad_envelope_integral(p, t0, t):
    """Reference for int_{t0}^t envelope: adaptive quadrature between the
    pairwise gain crossings, each found by brentq on a dense bracket, and
    between decades."""
    xs = np.unique(np.concatenate([np.linspace(t0, t, 4001),
                                   np.geomspace(max(t0, 1e-4), t, 4001)]))
    g = p.gain_all(xs)
    decades = 10.0 ** np.arange(-4, 4)
    cuts = [t0, t, *decades[(decades > t0) & (decades < t)]]
    for i in range(g.shape[1]):
        for j in range(i):
            diff = np.sign(g[:, i] - g[:, j])
            for k in np.flatnonzero(diff[1:] * diff[:-1] < 0):
                cuts.append(brentq(lambda x: p.gain_all(x)[i] - p.gain_all(x)[j],
                                   xs[k], xs[k + 1], xtol=1e-15, rtol=1e-15))
    cuts = np.unique(cuts)
    return sum(quad(p.envelope, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for a, b in zip(cuts[:-1], cuts[1:]))


@pytest.mark.parametrize("t0", [0.0, 1.0])
@pytest.mark.parametrize("beta", [0.01, 0.99, None])
def test_envelope_integral_matches_quadrature(beta, t0):
    """The closed-form envelope integral agrees with split quadrature to 1e-10
    relative on random profiles of up to 8 agents."""
    rng = np.random.default_rng(int(100 * (beta or 0.5) + t0))
    for _ in range(4):
        n = int(rng.integers(1, 9))
        params = np.column_stack([rng.uniform(0.3, 3.0, n), rng.uniform(0.2, 5.0, n),
                                  rng.uniform(0.05, 3.0, n)])
        p = make_profile(params, rng.uniform(0.05, 0.95) if beta is None else beta)
        ts = t0 + np.array([1e-3, 0.37, 2.0, 15.0, 120.0, 1000.0])
        exact = p.envelope_integral(t0, ts)
        ref = np.array([_quad_envelope_integral(p, t0, t) for t in ts])
        assert np.all(np.abs(exact - ref) <= 1e-10 * ref)
        assert p.envelope_integral(t0, t0) == 0.0


def test_envelope_integral_extreme_ratios():
    """Gain ratios whose 1/beta-th power overflows raise no warning and leave
    the dominant gain as the envelope, whose integral is exact."""
    p = make_profile([(100.0, 1.0, 1.0), (0.01, 2.0, 1.0)], 0.001)
    ts = np.array([0.5, 10.0, 1e4])
    exact = 100.0 * ((ts + 1.0) ** 0.999 - 1.0) / 0.999
    assert np.allclose(p.envelope_integral(0.0, ts), exact, rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError):
        p.envelope_integral(1.0, [0.5, 2.0])
