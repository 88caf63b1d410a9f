"""Monte Carlo aggregation, power-law fits, envelope tests, transition-matrix checks.

The transition matrices of x' = -a(t) J x for a Jordan block J(lam) are exact:
all the -a(t) J commute, so the matrix from t0 to t is expm(-u J) with
u = int_{t0}^t a, upper triangular Toeplitz with i-th superdiagonal
exp(-lam u) (-u)^i / i!.  Their RK4 reference is a function of J as well, and
is computed as one, in scalar series arithmetic (``jordan_transition_ode``).

The Monte Carlo moments aggregate the trials of the batched path engine
(``sde``) in fixed trial order, so they do not depend on the number of CPUs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sde
from .integrate import rk4_path
from .matrices import companion
from .plant import require_hurwitz
from .scenario import UnsuitedError
from .series import MomentSeries


class WindowTooNarrowError(UnsuitedError):
    pass


class GridMismatchError(ValueError):
    pass


MIN_TRIALS = 2  # the half-widths need a sample variance


def monte_carlo_moments(scen) -> MomentSeries:
    """Sample means of the follower errors and squared errors over the
    scenario's trials, at its sample times."""
    if scen.leaderless:
        raise UnsuitedError("Monte Carlo moments require a leader-following scenario")
    trials = scen.trials
    if trials < MIN_TRIALS:
        raise UnsuitedError(f"Monte Carlo moments need trials >= {MIN_TRIALS}, got {trials}")
    states = sde._run_full(scen, scen.base_seed, trials)
    fol = scen.graph.follower_indices
    err = states[:, :, fol, :] - states[:, :, [scen.graph.leader_index], :]
    sq = np.einsum("tsfk,tsfk->tsf", err, err)
    mean_err = err.mean(axis=0)
    mse = sq.mean(axis=0)
    hw = 1.96 * sq.std(axis=0, ddof=1) / np.sqrt(trials)
    return MomentSeries(
        times=scen.sample_times, follower_ids=tuple(fol), mean_err=mean_err,
        mse=mse, halfwidth=hw, provenance="monte_carlo", step_error=None,
    )


@dataclass(frozen=True)
class PowerLawFit:
    follower_ids: tuple[int, ...]
    window: tuple[float, float]
    slope: np.ndarray       # per follower
    intercept: np.ndarray


def fit_window(times: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    """Mask of the positive ``times`` inside ``window``, the points a power-law
    fit takes; refused unless they are >= 8 spanning >= 0.6 decades."""
    mask = (times >= window[0]) & (times <= window[1]) & (times > 0)
    tt = times[mask]
    if tt.size < 8 or tt.max() / tt.min() < 10 ** 0.6:
        raise WindowTooNarrowError(f"window {window} has {tt.size} points spanning "
                                   f"{np.log10(tt.max() / tt.min()) if tt.size else 0:.2f} "
                                   "decades; need >= 8 points over >= 0.6 decades")
    return mask


def fit_power_law(series: MomentSeries, window: tuple[float, float]) -> PowerLawFit:
    """Unweighted least squares of log(mse) against log(t) inside the window."""
    mask = fit_window(series.times, window)
    x, y = np.log(series.times[mask]), np.log(series.mse[mask])
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return PowerLawFit(
        follower_ids=series.follower_ids, window=(float(window[0]), float(window[1])),
        slope=coef[0], intercept=coef[1],
    )


def envelope_check(series: MomentSeries, C: float, beta: float, t_min: float) -> np.ndarray:
    """Per-follower fraction of sample times t >= t_min with mse > C t^(-beta)."""
    mask = (series.times >= t_min) & (series.times > 0)
    if not mask.any():
        raise UnsuitedError(f"the envelope check needs a sample time t >= {t_min:g}")
    tt = series.times[mask]
    bound = C * tt ** (-beta)
    viol = series.mse[mask] > bound[:, None]
    return viol.mean(axis=0)


def _scaled_band(r: int, u: np.ndarray) -> np.ndarray:
    """(S, r): (-u)^i / i!, the band with the diagonal decay exp(-lam u) factored out,
    as running products of the columns 1, -u/1, ..., -u/(r - 1)."""
    if r < 1:
        raise ValueError("block size must be >= 1")
    i = np.arange(r)
    return np.cumprod(np.where(i > 0, -u[:, None] / np.maximum(i, 1), 1.0), axis=1)


def _toeplitz_upper(band: np.ndarray) -> np.ndarray:
    """(S, r, r) upper triangular Toeplitz matrices with diagonal i = band[:, i]."""
    S, r = band.shape
    m = np.zeros((S, r, r), dtype=band.dtype)
    for i in range(r):
        m[:, np.arange(r - i), np.arange(i, r)] = band[:, i, None]
    return m


def jordan_transition(lam: complex, r: int, gain_integral) -> np.ndarray:
    """(S, r, r) complex transition matrices expm(-u J(lam)) of x' = -a(t) J x
    for an r-sized Jordan block J(lam), in closed form from the gain
    integrals u = int_{t0}^t a."""
    u = np.asarray(gain_integral, dtype=float)
    return _toeplitz_upper(_scaled_band(r, u) * np.exp(-complex(lam) * u)[:, None])


def jordan_log_norms(lam: complex, r: int, gain_integral) -> np.ndarray:
    """(S,) log of the spectral norm of ``jordan_transition``, computed stably.

    Factoring out the diagonal decay exp(-lam u) keeps the residual Toeplitz
    factor T well scaled even when the raw entries underflow.  T is real, so
    its spectral norm is the square root of the largest eigenvalue of T^T T.
    """
    u = np.asarray(gain_integral, dtype=float)
    T = _toeplitz_upper(_scaled_band(r, u))
    norms = np.sqrt(np.linalg.eigvalsh(T.swapaxes(-1, -2) @ T)[:, -1])
    return -complex(lam).real * u + np.log(norms)


def jordan_transition_ode(lam: complex, gain_fn, r: int, grid) -> np.ndarray:
    """Independent oracle: classical RK4 for Xi' = -a(t) J Xi from I at grid[0],
    stepped and sampled on the increasing ``grid``, from ``gain_fn`` samples only.
    A step is RK4's stability polynomial p(J) = 1 + c1 J + ... + c4 J^4 in the
    step's gains, and a function of J(lam) is upper triangular Toeplitz in its
    Taylor coefficients at lam.  So the steps multiply as power series cut at
    order r: the leading terms by a running product, the rest as exp of the
    running sum of the steps' log-series."""
    t, h = np.asarray(grid, dtype=float), np.diff(grid)
    a = gain_fn(np.append(np.column_stack([t[:-1], t[:-1] + 0.5 * h]).ravel(), t[-1]))
    a0, ah, a1 = a[:-1:2], a[1::2], a[2::2]
    c = np.column_stack([np.ones_like(h), -h * (a0 + 4 * ah + a1) / 6,
                         h ** 2 * ah * (a0 + ah + a1) / 6, -h ** 3 * ah ** 2 * (a0 + a1) / 12,
                         h ** 4 * a0 * a1 * ah ** 2 / 24])
    taylor = c @ np.array([[math.comb(j, i) * complex(lam) ** max(j - i, 0) for i in range(r)]
                           for j in range(5)])
    f, log = taylor / taylor[:, :1], np.zeros_like(taylor)
    for n in range(1, r):  # log f: n l_n = n f_n - sum_{0<k<n} k l_k f_{n-k}
        log[:, n] = f[:, n] - sum(k * log[:, k] * f[:, n - k] for k in range(1, n)) / n
    L, band = np.cumsum(log, axis=0), np.zeros((t.size, r), dtype=complex)
    band[0, 0], band[1:, 0] = 1.0, np.cumprod(taylor[:, 0])
    for n in range(1, r):  # times exp L: n e_n = sum_{0<k<=n} k L_k e_{n-k}
        band[1:, n] = sum(k * L[:, k] * band[1:, n - k] for k in range(1, n + 1)) / n
    return _toeplitz_upper(band)


def transition_bound_check(blocks, profile, eps: float, grid) -> np.ndarray:
    """Finiteness witnesses for the envelope-driven transition-matrix bound.

    For each (lambda, block size) pair the normalized log ratio
    log||Phi|| + (Re(lambda) - eps) int envelope is evaluated on the grid
    points of its first decade and of its last, the only ones it reports.
    Returns (len(blocks), 2): its max over the first decade of the grid and
    over the last, which ``verify`` compares.
    All arithmetic stays in log space: the raw ratios under/overflow quickly.
    """
    grid = np.asarray(grid, dtype=float)
    head = grid <= grid[0] * 10.0
    tail = grid >= grid[-1] / 10.0
    keep = head | tail
    u = profile.envelope_integral(grid[0], grid)[keep]
    head, tail = head[keep], tail[keep]
    maxima = np.empty((len(blocks), 2))
    for i, (lam, r) in enumerate(blocks):
        lam = complex(lam)
        if lam.real <= 0:
            raise ValueError(f"lambda must have positive real part, got {lam}")
        if not (0.0 < eps < lam.real):
            raise ValueError(f"eps must lie in (0, {lam.real}), got {eps}")
        log_ratio = jordan_log_norms(lam, r, u) + (lam.real - eps) * u
        maxima[i] = log_ratio[head].max(), log_ratio[tail].max()
    return maxima


def filter_response(b, drive_times, drive_values, init):
    """Response of the stable filter xi^(n) + b_{n-1} xi^(n-1) + ... + b_0 xi = drive.

    ``b`` lists monic coefficients low to high (b_0, ..., b_{n-1}, 1).  The
    drive is sampled on any increasing grid, which is also the RK4 step grid;
    its values inside a step come from linear interpolation.  Returns the
    states at the drive times, where states[:, k] is the kth derivative of xi
    for k = 0..n (the nth from the equation itself).
    """
    b = np.asarray(b, dtype=float)
    require_hurwitz(b, "filter polynomial")
    n = b.size - 1
    t = np.asarray(drive_times, dtype=float)
    z = np.asarray(drive_values, dtype=float)
    if t.size != z.size or t.size < 2:
        raise GridMismatchError("drive times and values must match with >= 2 samples")
    if not np.all(np.diff(t) > 0):
        raise GridMismatchError("drive grid must be increasing")
    init = np.asarray(init, dtype=float)
    if init.shape != (n,):
        raise GridMismatchError(f"initial state must have shape ({n},)")

    # The drive enters the last derivative through the augmented state (xi, 1).
    comp, drive = np.zeros((2, n + 1, n + 1))
    comp[:n, :n], drive[n - 1, n] = companion(b), 1.0
    states = rk4_path(lambda u: comp + u[:, None, None] * drive, np.append(init, 1.0),
                      lambda s: np.interp(s, t, z), t, np.arange(t.size))[:, :n]
    top = z - states @ b[:n]
    return np.column_stack([states, top])
