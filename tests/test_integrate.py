import numpy as np
import pytest

from leadfollow import integrate
from leadfollow.integrate import rk4_path

from conftest import rk4_reference


def _scalar(u):
    """y' = u y as stacked 1 x 1 matrices."""
    return u[:, None, None]


def _slots(size, points):
    """Slot map of a grid of ``size`` points storing grid point points[s] as sample s."""
    slot = np.full(size, -1)
    slot[points] = np.arange(len(points))
    return slot


def _cos_growth_error(t):
    """Endpoint error of y' = cos(t) y, y(0) = 1 on the grid t from 0 to 2;
    exact y = exp(sin t)."""
    y = rk4_path(_scalar, [1.0], np.cos, t, _slots(t.size, [-1]))
    return abs(y[0, 0] - np.exp(np.sin(2.0)))


def test_rk4_path_stage_inputs_give_fourth_order():
    """Halving dt cuts the error about 16-fold only if the input is taken at
    each step's midpoint for the midpoint stages; the step-start input there
    gives first order."""
    coarse, fine = (_cos_growth_error(np.linspace(0.0, 2.0, k)) for k in (21, 41))
    assert coarse / fine >= 14.0


def test_rk4_path_fourth_order_on_jittered_grid():
    """On a grid with randomly jittered step lengths, splitting every step in
    two still cuts the error about 16-fold, twice over."""
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 2.0, 21)
    t[1:-1] += rng.uniform(-0.03, 0.03, 19)
    errors = []
    for _ in range(3):
        errors.append(_cos_growth_error(t))
        t = np.sort(np.concatenate([t, 0.5 * (t[:-1] + t[1:])]))
    assert errors[0] / errors[1] >= 14.0
    assert errors[1] / errors[2] >= 14.0


def test_rk4_path_samples_follow_slot():
    t = np.linspace(0.0, 2.0, 9)
    idx = [8, 0, 2]
    y = rk4_path(_scalar, np.array([[1.0, 2.0]]), np.ones_like, t, _slots(t.size, idx))
    assert y.shape == (3, 1, 2)
    assert np.array_equal(y[1, 0], [1.0, 2.0])
    assert np.allclose(y[:, 0, 1] / y[:, 0, 0], 2.0)
    assert np.allclose(y[:, 0, 0], np.exp(t[idx]), rtol=1e-4)


def test_rk4_path_matches_reference_across_blocks(monkeypatch):
    """A forced, time-varying linear system through the augmented matrix
    [[M, c], [0, 0]]: the step matrices give the reference RK4 to round-off,
    bit for bit the same at any block length."""
    A = np.array([[0.0, 1.0], [-2.0, -0.3]])
    dt, steps = 0.01, 600
    t = dt * np.arange(steps + 1)
    slot = _slots(t.size, np.arange(0, steps + 1, 50))
    u = np.sin(0.5 * dt * np.arange(2 * steps + 1))

    def M(v):
        out = np.zeros(v.shape + (3, 3))
        out[:, :2, :2] = A * (1.0 + 0.5 * v[:, None, None])
        out[:, 1, 2] = v
        return out

    y = rk4_path(M, [1.0, -1.0, 1.0], np.sin, t, slot)
    ref = rk4_reference(lambda v, x: (A * (1.0 + 0.5 * v)) @ x + [0.0, v], [1.0, -1.0],
                        u, dt, slot)
    assert np.array_equal(y[:, 2], np.ones(13))
    assert np.abs(y[:, :2] - ref).max() <= 1e-13
    assert integrate.SUBS == 16
    for subs in (1, 3, 7):
        monkeypatch.setattr(integrate, "SUBS", subs)
        assert np.array_equal(rk4_path(M, [1.0, -1.0, 1.0], np.sin, t, slot), y)


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_rk4_path_noise_mode_ornstein_uhlenbeck(lam):
    """dy = -lam y dt + sigma dW from y0 = 1: mean exp(-lam t) and variance
    sigma^2 (1 - exp(-2 lam t)) / (2 lam), both at fourth order in dt."""
    sigma, t_end = 0.7, 3.0
    errors = []
    for steps in (30, 60):
        grid = np.linspace(0.0, t_end, steps + 1)
        m, P = rk4_path(lambda u: -lam * u[:, None, None], [1.0], np.ones_like, grid,
                        _slots(grid.size, [steps // 3, steps]),
                        noise=lambda u: sigma * u[:, None, None])
        t = np.array([1.0, t_end])
        var = sigma ** 2 * (1.0 - np.exp(-2.0 * lam * t)) / (2.0 * lam)
        assert np.allclose(m[:, 0], np.exp(-lam * t), rtol=1e-4)
        errors.append(np.abs(P[:, 0, 0] - var).max())
    assert errors[0] / errors[1] >= 14.0


def _forced_system(v):
    """A time-varying 3 x 3 system with its forcing in the last column."""
    out = np.zeros(v.shape + (3, 3))
    out[:, :2, :2] = np.array([[0.0, 1.0], [-2.0, -0.3]]) * (1.0 + 0.5 * v[:, None, None])
    out[:, 1, 2] = v
    return out


def _jittered_grid(steps, seed):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 0.01 * steps, steps + 1)
    t[1:-1] += rng.uniform(-0.003, 0.003, steps - 1)
    return t


@pytest.mark.parametrize("subs", [1, 2, 3, 7, 15, 16, 17, 40])
def test_rk4_path_independent_of_block_steps(monkeypatch, subs):
    """Both branches give the same bits at any number of sub-blocks per
    block, on a grid whose step count (601) is not a multiple of the
    sub-block length, so its last block ends inside a sub-block; at the
    default (16) two runs give the same bits."""
    t = _jittered_grid(601, 7)
    slot = _slots(t.size, [0, 5, 15, 16, 17, 250, 256, 257, 600, 601])

    def run():
        path = rk4_path(_forced_system, [1.0, -1.0, 1.0], np.sin, t, slot)
        m, P = rk4_path(_forced_system, [1.0, -1.0, 1.0], np.sin, t, slot,
                        noise=lambda v: np.stack([np.cos(v), v, 0.0 * v], axis=-1)[..., None])
        return path, m, P

    expected = run()
    monkeypatch.setattr(integrate, "SUBS", subs)
    for got, want in zip(run(), expected):
        assert np.array_equal(got, want)


def test_rk4_path_matches_per_step_products():
    """The prefix-composed sub-blocks give the per-step loop y <- R_k y to
    round-off on a jittered grid."""
    t = _jittered_grid(601, 11)
    h = np.diff(t)
    v = np.sin(np.append(np.column_stack([t[:-1], t[:-1] + 0.5 * h]).ravel(), t[-1]))
    Ms = _forced_system(v)
    R = integrate._rk4_maps(Ms[:-1:2], Ms[1::2], Ms[2::2], h[:, None, None])
    ref = [np.array([1.0, -1.0, 1.0])]
    for Rk in R:
        ref.append(Rk @ ref[-1])
    ref = np.array(ref)
    y = rk4_path(_forced_system, [1.0, -1.0, 1.0], np.sin, t, np.arange(t.size))
    assert np.abs(y - ref).max() <= 1e-13 * np.abs(ref).max()


def test_rk4_path_rejects_complex():
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(TypeError):
        rk4_path(_scalar, [1.0 + 0.5j], np.ones_like, t, np.arange(t.size))
    with pytest.raises(TypeError):
        rk4_path(lambda u: 1j * _scalar(u), [1.0], np.ones_like, t, np.arange(t.size))
