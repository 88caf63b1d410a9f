"""Monte Carlo aggregation, power-law fits, envelope tests, transition-matrix checks.

The transition matrices of x' = -a(t) J x for a Jordan block J(lam) are exact:
all the -a(t) J commute, so the matrix from t0 to t is expm(-u J) with
u = int_{t0}^t a, upper triangular Toeplitz with i-th superdiagonal
exp(-lam u) (-u)^i / i!.

The Monte Carlo estimator runs all trials through the batched path engine, each
trial on its own counter-based noise stream keyed on (base seed, trial).  The
engine splits the trials into contiguous ranges, one per usable CPU, run in
forked worker processes (see ``sde``); each trial's path is bit-identical
whatever the split, and the moments are aggregated in the parent in fixed
trial order, so results are bit-reproducible and independent of the number
of CPUs.
"""

from __future__ import annotations

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
    """Independent oracle: RK4 integration of Xi' = -a(t) J Xi from I at
    grid[0], stepped and sampled on the increasing ``grid``.

    The RK4 runs in real arithmetic, on the real form [[Re J, -Im J],
    [Im J, Re J]] acting on Y = [Re Xi; Im Xi] from [I; 0], and returns the
    complex Xi = Y[:r] + i Y[r:].  Complex arithmetic is that real form, so
    this is the complex RK4 to round-off."""
    J = np.eye(r, dtype=complex) * lam + np.eye(r, k=1)
    real_form = np.block([[J.real, -J.imag], [J.imag, J.real]])
    Y = rk4_path(lambda a: -a[:, None, None] * real_form, np.eye(2 * r, r), gain_fn,
                 grid, np.arange(len(grid)))
    return Y[:, :r] + 1j * Y[:, r:]


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

    comp = companion(b)

    def M(u):
        # The drive enters the last derivative through the augmented state (xi, 1).
        A = np.zeros(u.shape + (n + 1, n + 1))
        A[:, :n, :n] = comp
        A[:, n - 1, n] = u
        return A

    states = rk4_path(M, np.append(init, 1.0), lambda s: np.interp(s, t, z), t,
                      np.arange(t.size))[:, :n]
    top = z - states @ b[:n]
    return np.column_stack([states, top])
