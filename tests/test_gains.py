import numpy as np
import pytest

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
    assert p.agent_ids == (1, 2, 3, 4)
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
    assert consts.mean_exp_coeff == pytest.approx(
        0.6 * (consts.lambda_min - consts.eps) / 0.6
    )


def test_rate_constants_bad_spectrum(follower_profile):
    with pytest.raises(NonPositiveSpectrumError):
        rate_constants(follower_profile, np.zeros((4, 4)))


def test_decay_dominance(follower_profile):
    """The integrated-envelope exponential beats t^(-beta): log ratios strictly
    decrease and the ratio at 1e4 sits far below 1e-2."""
    ratios = decay_dominance_log_ratios(follower_profile, 1.0, [1e2, 1e3, 1e4])
    assert np.all(np.diff(ratios) < 0)
    assert ratios[-1] < np.log(1e-2)
