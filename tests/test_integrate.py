import numpy as np
import pytest

from leadfollow import integrate
from leadfollow.integrate import rk4_path, snap_to_grid

from conftest import rk4_reference


def _scalar(u):
    """y' = u y as stacked 1 x 1 matrices."""
    return u[:, None, None]


def _cos_growth_error(dt):
    """Endpoint error of y' = cos(t) y, y(0) = 1 on [0, 2]; exact y = exp(sin t)."""
    steps = int(round(2.0 / dt))
    _, slot = snap_to_grid([2.0], dt, steps)
    y = rk4_path(_scalar, [1.0], lambda j: np.cos(0.5 * dt * j), dt, slot)
    return abs(y[0, 0] - np.exp(np.sin(2.0)))


def test_rk4_path_stage_inputs_give_fourth_order():
    """Halving dt cuts the error about 16-fold only if the odd stage points
    are used at the midpoint stages; the step-start input there gives first order."""
    assert _cos_growth_error(0.1) / _cos_growth_error(0.05) >= 14.0


def test_rk4_path_samples_follow_slot():
    dt, steps = 0.25, 8
    idx, slot = snap_to_grid([2.0, 0.0, 0.5], dt, steps)
    y = rk4_path(_scalar, np.array([[1.0, 2.0]]), lambda j: np.ones(j.size), dt, slot)
    assert y.shape == (3, 1, 2)
    assert np.array_equal(y[1, 0], [1.0, 2.0])
    assert np.allclose(y[:, 0, 1] / y[:, 0, 0], 2.0)
    assert np.allclose(y[:, 0, 0], np.exp(idx * dt), rtol=1e-4)


def test_rk4_path_matches_reference_across_blocks(monkeypatch):
    """A forced, time-varying linear system through the augmented matrix
    [[M, c], [0, 0]]: the step matrices give the reference RK4 to round-off,
    bit for bit the same at any block length."""
    A = np.array([[0.0, 1.0], [-2.0, -0.3]])
    dt, steps = 0.01, 600
    _, slot = snap_to_grid(np.linspace(0.0, 6.0, 13), dt, steps)
    u = np.sin(0.5 * dt * np.arange(2 * steps + 1))

    def M(v):
        out = np.zeros(v.shape + (3, 3))
        out[:, :2, :2] = A * (1.0 + 0.5 * v[:, None, None])
        out[:, 1, 2] = v
        return out

    y = rk4_path(M, [1.0, -1.0, 1.0], u.__getitem__, dt, slot)
    ref = rk4_reference(lambda v, x: (A * (1.0 + 0.5 * v)) @ x + [0.0, v], [1.0, -1.0],
                        u, dt, slot)
    assert np.array_equal(y[:, 2], np.ones(13))
    assert np.abs(y[:, :2] - ref).max() <= 1e-13
    assert integrate.BLOCK_STEPS == 256
    monkeypatch.setattr(integrate, "BLOCK_STEPS", 7)
    assert np.array_equal(rk4_path(M, [1.0, -1.0, 1.0], u.__getitem__, dt, slot), y)


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_rk4_path_noise_mode_ornstein_uhlenbeck(lam):
    """dy = -lam y dt + sigma dW from y0 = 1: mean exp(-lam t) and variance
    sigma^2 (1 - exp(-2 lam t)) / (2 lam), both at fourth order in dt."""
    sigma, t_end = 0.7, 3.0
    errors = []
    for dt in (0.1, 0.05):
        steps = int(round(t_end / dt))
        _, slot = snap_to_grid([1.0, t_end], dt, steps)
        m, P = rk4_path(lambda u: -lam * u[:, None, None], ([1.0], [[0.0]]),
                        lambda j: np.ones(j.size), dt, slot,
                        noise=lambda u: sigma * u[:, None, None])
        t = np.array([1.0, t_end])
        var = sigma ** 2 * (1.0 - np.exp(-2.0 * lam * t)) / (2.0 * lam)
        assert np.allclose(m[:, 0], np.exp(-lam * t), rtol=1e-4)
        errors.append(np.abs(P[:, 0, 0] - var).max())
    assert errors[0] / errors[1] >= 14.0
