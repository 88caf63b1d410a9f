"""Monte Carlo aggregation, power-law fits, envelope tests, transition-matrix checks.

The transition matrices of x' = -a(t) J x for a Jordan block J(lam) are exact:
all the -a(t) J commute, so the matrix from t0 to t is expm(-u J) with
u = int_{t0}^t a, upper triangular Toeplitz with i-th superdiagonal
exp(-lam u) (-u)^i / i!.

The Monte Carlo estimator runs all trials through the batched path engine, each
trial on its own counter-based noise stream keyed on (base seed, trial), and
aggregates moments in fixed trial order, so results are bit-reproducible and
independent of any scheduling concerns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sde
from .integrate import rk4_path, snap_to_grid
from .matrices import companion
from .plant import NotHurwitzError, require_hurwitz  # noqa: F401  (filter_response raises it)
from .series import MomentSeries


class WindowTooNarrowError(ValueError):
    pass


class GridMismatchError(ValueError):
    pass


MIN_TRIALS = 2  # the half-widths need a sample variance

# No growth of the normalized transition ratio: tail max <= head max + log(GROWTH_SLACK).
GROWTH_SLACK = 1.05


def monte_carlo_moments(scen) -> MomentSeries:
    """Sample means of the follower errors and squared errors over the
    scenario's trials, at its sample times."""
    trials = scen.trials
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials for a variance estimate")
    states = sde._run_full(scen, scen.base_seed, trials)
    fol = scen.graph.follower_indices
    lead = scen.graph.leader_index
    err = states[:, :, fol, :] - states[:, :, [lead], :]
    sq = np.einsum("tsfk,tsfk->tsf", err, err)
    mean_err = err.mean(axis=0)
    mse = sq.mean(axis=0)
    hw = 1.96 * sq.std(axis=0, ddof=1) / np.sqrt(trials)
    return MomentSeries(
        times=scen.sample_times, follower_ids=tuple(fol), mean_err=mean_err,
        mse=mse, halfwidth=hw, provenance="monte_carlo",
    )


@dataclass(frozen=True)
class PowerLawFit:
    follower_ids: tuple[int, ...]
    window: tuple[float, float]
    slope: np.ndarray       # per follower
    intercept: np.ndarray


def fit_power_law(series: MomentSeries, window: tuple[float, float]) -> PowerLawFit:
    """Unweighted least squares of log(mse) against log(t) inside the window."""
    t_lo, t_hi = window
    mask = series.window(t_lo, t_hi) & (series.times > 0)
    tt = series.times[mask]
    if tt.size < 8 or tt.max() / tt.min() < 10 ** 0.6:
        raise WindowTooNarrowError(
            f"window {window} has {tt.size} points spanning "
            f"{np.log10(tt.max() / tt.min()) if tt.size else 0:.2f} decades; "
            "need >= 8 points over >= 0.6 decades"
        )
    x = np.log(tt)
    y = np.log(series.mse[mask])
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return PowerLawFit(
        follower_ids=series.follower_ids, window=(float(t_lo), float(t_hi)),
        slope=coef[0], intercept=coef[1],
    )


def envelope_check(series: MomentSeries, C: float, beta: float, t_min: float) -> np.ndarray:
    """Per-follower fraction of sample times t >= t_min with mse > C t^(-beta)."""
    mask = (series.times >= t_min) & (series.times > 0)
    if not mask.any():
        raise ValueError("t_min beyond the sampled horizon")
    tt = series.times[mask]
    bound = C * tt ** (-beta)
    viol = series.mse[mask] > bound[:, None]
    return viol.mean(axis=0)


@dataclass(frozen=True)
class TransitionMatrix:
    """Jordan-block transition matrices expm(-u J(lam)) at the gain integrals u."""

    lam: complex
    r: int
    gain_integral: np.ndarray   # (S,): u = int_{t0}^{t} a at each time t

    def _scaled_band(self) -> np.ndarray:
        """(S, r): (-u)^i / i!, the band with the diagonal decay exp(-lam u) factored out."""
        i = np.arange(self.r)
        return (-self.gain_integral[:, None]) ** i / np.cumprod(np.maximum(i, 1))

    @property
    def values(self) -> np.ndarray:
        """(S, r, r) complex transition matrices."""
        decay = np.exp(-self.lam * self.gain_integral)[:, None]
        return _toeplitz_upper(self._scaled_band() * decay)

    def log_norms(self) -> np.ndarray:
        """log of the spectral norm at every time, computed stably.

        Factoring out the diagonal decay exp(-lam u) keeps the residual
        Toeplitz factor well scaled even when the raw entries underflow.
        """
        norms = np.linalg.norm(_toeplitz_upper(self._scaled_band()), 2, axis=(-2, -1))
        return -self.lam.real * self.gain_integral + np.log(norms)


def _toeplitz_upper(band: np.ndarray) -> np.ndarray:
    """(S, r, r) upper triangular Toeplitz matrices with diagonal i = band[:, i]."""
    S, r = band.shape
    m = np.zeros((S, r, r), dtype=band.dtype)
    for i in range(r):
        rows = np.arange(r - i)
        m[:, rows, rows + i] = band[:, i, None]
    return m


def jordan_transition(lam: complex, r: int, gain_integral) -> TransitionMatrix:
    """Transition matrices of x' = -a(t) J x for an r-sized Jordan block J(lam),
    in closed form from the gain integrals u = int_{t0}^t a."""
    if r < 1:
        raise ValueError("block size must be >= 1")
    return TransitionMatrix(lam=complex(lam), r=int(r),
                            gain_integral=np.asarray(gain_integral, dtype=float))


def jordan_transition_ode(lam: complex, gain_fn, r: int, t0: float, grid) -> np.ndarray:
    """Independent oracle: direct RK4 integration of Xi' = -a(t) J Xi from I."""
    J = np.eye(r, dtype=complex) * lam + np.eye(r, k=1)
    grid = np.asarray(grid, dtype=float)
    dt = np.diff(grid).min()
    steps = int(round((grid[-1] - t0) / dt))
    _, slot = snap_to_grid(grid, dt, steps, t0)
    return rk4_path(lambda a: -a[:, None, None] * J, np.eye(r, dtype=complex),
                    lambda j: np.asarray(gain_fn(t0 + 0.5 * dt * j), dtype=float), dt, slot)


@dataclass(frozen=True)
class BoundEntry:
    lam: complex
    r: int
    eps: float
    head_log_max: float       # max log ratio over the first decade of the grid
    tail_log_max: float       # max log ratio over the last decade
    no_growth: bool


def transition_bound_check(blocks, profile, eps: float, grid) -> tuple[BoundEntry, ...]:
    """Finiteness witnesses for the envelope-driven transition-matrix bound.

    For each (lambda, block size) pair the normalized log ratio
    log||Phi|| + (Re(lambda) - eps) int envelope is evaluated on the grid;
    absence of growth is witnessed by tail max <= head max + log(GROWTH_SLACK).
    All arithmetic stays in log space: the raw ratios under/overflow quickly.
    """
    grid = np.asarray(grid, dtype=float)
    u = profile.envelope_integral(grid[0], grid)
    entries = []
    for lam, r in blocks:
        lam = complex(lam)
        if lam.real <= 0:
            raise ValueError(f"lambda must have positive real part, got {lam}")
        if not (0.0 < eps < lam.real):
            raise ValueError(f"eps must lie in (0, {lam.real}), got {eps}")
        log_ratio = jordan_transition(lam, r, u).log_norms() + (lam.real - eps) * u
        head = grid <= grid[0] * 10.0
        tail = grid >= grid[-1] / 10.0
        head_max = float(log_ratio[head].max())
        tail_max = float(log_ratio[tail].max())
        entries.append(BoundEntry(
            lam=lam, r=r, eps=float(eps), head_log_max=head_max, tail_log_max=tail_max,
            no_growth=tail_max <= head_max + np.log(GROWTH_SLACK),
        ))
    return tuple(entries)


def filter_response(b, drive_times, drive_values, init):
    """Response of the stable filter xi^(n) + b_{n-1} xi^(n-1) + ... + b_0 xi = drive.

    ``b`` lists monic coefficients low to high (b_0, ..., b_{n-1}, 1).  The
    drive is sampled on a uniform grid; midpoint values for the RK4 stages come
    from linear interpolation.  Returns (times, states) where states[:, k] is
    the kth derivative of xi for k = 0..n (the nth from the equation itself).
    """
    b = np.asarray(b, dtype=float)
    require_hurwitz(b, "filter polynomial")
    n = b.size - 1
    t = np.asarray(drive_times, dtype=float)
    z = np.asarray(drive_values, dtype=float)
    if t.size != z.size or t.size < 2:
        raise GridMismatchError("drive times and values must match with >= 2 samples")
    dts = np.diff(t)
    dt = dts[0]
    if not np.allclose(dts, dt, rtol=1e-9, atol=1e-12):
        raise GridMismatchError("drive grid must be uniform")
    init = np.asarray(init, dtype=float)
    if init.shape != (n,):
        raise GridMismatchError(f"initial state must have shape ({n},)")

    comp = companion(b)
    drive = np.empty(2 * t.size - 1)
    drive[0::2] = z
    drive[1::2] = 0.5 * (z[:-1] + z[1:])

    def M(u):
        # The drive enters the last derivative through the augmented state (xi, 1).
        A = np.zeros(u.shape + (n + 1, n + 1))
        A[:, :n, :n] = comp
        A[:, n - 1, n] = u
        return A

    states = rk4_path(M, np.append(init, 1.0), drive.__getitem__, dt, np.arange(t.size))[:, :n]
    top = z - states @ b[:n]
    return t, np.column_stack([states, top])
