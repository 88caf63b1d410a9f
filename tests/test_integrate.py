import numpy as np

from leadfollow.integrate import rk4_path, snap_to_grid


def _cos_growth_error(dt):
    """Endpoint error of y' = cos(t) y, y(0) = 1 on [0, 2]; exact y = exp(sin t)."""
    steps = int(round(2.0 / dt))
    _, slot = snap_to_grid([2.0], dt, steps)
    inputs = np.cos(0.5 * dt * np.arange(2 * steps + 1))
    y = rk4_path(lambda u, y: u * y, 1.0, inputs, dt, slot)
    return abs(y[0] - np.exp(np.sin(2.0)))


def test_rk4_path_stage_inputs_give_fourth_order():
    """Halving dt cuts the error about 16-fold only if inputs[2k + 1] is used
    at the midpoint stages; the step-start input there gives first order."""
    assert _cos_growth_error(0.1) / _cos_growth_error(0.05) >= 14.0


def test_rk4_path_samples_follow_slot():
    dt, steps = 0.25, 8
    idx, slot = snap_to_grid([2.0, 0.0, 0.5], dt, steps)
    y = rk4_path(lambda u, y: u * y, [1.0, 2.0], np.ones(2 * steps + 1), dt, slot)
    assert y.shape == (3, 2)
    assert np.array_equal(y[1], [1.0, 2.0])
    assert np.allclose(y[:, 1] / y[:, 0], 2.0)
    assert np.allclose(y[:, 0], np.exp(idx * dt), rtol=1e-4)
