"""Exact mean/covariance evolution of the follower error stack.

For a linear SDE with additive noise the first two moments obey closed ODEs:

    m' = F(t) m,
    P' = F(t) P + P F(t)^T + G(t) G(t)^T,

with F(t) = I_N (x) (A + B K1) - Gains(t) L2 (x) B K2 and G(t) the stacked
noise routing.  Integrating these with a classical fourth-order scheme gives
the designated ground truth that every Monte Carlo estimate is checked against:
no sampling error, only (checkable) discretization error.

F and the noise routing come from the same assembly the path simulator uses
(``plant.closed_loop_drift``, ``sde.noise_channels``).  The oracle's
independence from that assembly lives in the tests, which check it against the
dense Kronecker form and an adaptive ODE solve of the mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrate import snap_to_grid
from .sde import noise_channels
from .series import MomentSeries

PSD_HARD_TOL = -1e-6


class NonPSDError(RuntimeError):
    """Covariance eigenvalue fell below tolerance; the integrator step failed."""


def evolve_moments(scen, grid=None, return_cov: bool = False):
    """Integrate the moment ODEs and sample them on ``grid`` (default scenario grid).

    Returns a MomentSeries with provenance "oracle"; with ``return_cov`` the
    full covariance at the sample times is returned as a second value.
    """
    if scen.leaderless:
        raise ValueError("moment oracle requires a leader-following scenario")
    fol = scen.graph.follower_indices
    N, n = len(fol), scen.plant.n
    D = N * n
    dt = scen.dt
    steps = scen.steps
    F = scen.drift()
    last = F.last
    q = noise_channels(scen, fol)

    rec_idx, wanted = snap_to_grid(scen.sample_times if grid is None else grid, dt, steps)

    m = (scen.init_states[fol] - scen.init_states[scen.graph.leader_index]).reshape(-1)
    P = np.zeros((D, D))
    mean_err = np.empty((rec_idx.size, N, n))
    mse = np.empty((rec_idx.size, N))
    cov = np.empty((rec_idx.size, D, D)) if return_cov else None

    def record(s_i, m, P):
        mean_err[s_i] = m.reshape(N, n)
        for p in range(N):
            blk = P[p * n:(p + 1) * n, p * n:(p + 1) * n]
            mse[s_i, p] = float(m[p * n:(p + 1) * n] @ m[p * n:(p + 1) * n]) + np.trace(blk)
        lam_min = float(np.linalg.eigvalsh(0.5 * (P + P.T)).min())
        if lam_min < PSD_HARD_TOL:
            raise NonPSDError(f"covariance eigenvalue {lam_min:.3e} at sample {s_i}")
        if cov is not None:
            cov[s_i] = P

    if wanted[0] >= 0:
        record(wanted[0], m, P)

    # Precompute gains at all stage times (full and half grid).
    all_gains = scen.profile.gain_all(np.arange(2 * steps + 1) * (0.5 * dt))

    def deriv(a_vec, m, P):
        Fm = F(a_vec)
        dm = Fm @ m
        dP = Fm @ P + P @ Fm.T
        dP[last, last] += a_vec * a_vec * q
        return dm, dP

    for k in range(steps):
        a0 = all_gains[2 * k]
        ah = all_gains[2 * k + 1]
        a1 = all_gains[2 * k + 2]
        k1m, k1P = deriv(a0, m, P)
        k2m, k2P = deriv(ah, m + 0.5 * dt * k1m, P + 0.5 * dt * k1P)
        k3m, k3P = deriv(ah, m + 0.5 * dt * k2m, P + 0.5 * dt * k2P)
        k4m, k4P = deriv(a1, m + dt * k3m, P + dt * k3P)
        m = m + (dt / 6.0) * (k1m + 2 * k2m + 2 * k3m + k4m)
        P = P + (dt / 6.0) * (k1P + 2 * k2P + 2 * k3P + k4P)
        s_i = wanted[k + 1]
        if s_i >= 0:
            record(s_i, m, P)

    series = MomentSeries(
        times=rec_idx * dt, follower_ids=tuple(fol), mean_err=mean_err, mse=mse,
        halfwidth=None, provenance="oracle",
    )
    return (series, cov) if return_cov else series


@dataclass(frozen=True)
class RateReport:
    """Finite-horizon witnesses for the convergence-rate statements."""

    follower_ids: tuple[int, ...]
    tail_window: tuple[float, float]
    beta: float
    ms_witness_sup: np.ndarray      # sup over tail of mse * t^beta, per follower
    ms_witness_spread: np.ndarray   # max/min of mse * t^beta over tail
    ms_witness_slope: np.ndarray    # LS slope of log(mse * t^beta) vs log t
    mean_witness_log: np.ndarray    # (S_tail, N): log ||mean err|| + coeff * t^(1-beta)
    bounded: np.ndarray             # per-follower boolean witness

    @property
    def all_bounded(self) -> bool:
        return bool(np.all(self.bounded))


class InsufficientSpanError(ValueError):
    pass


def oracle_rate_check(series: MomentSeries, profile, constants,
                      tail: tuple[float, float] | None = None,
                      spread_max: float = 10.0, slope_tol: float = 0.15) -> RateReport:
    """Boundedness witnesses for the mean-square and mean decay rates.

    These are finite-horizon surrogates: they certify the absence of a growth
    trend on the simulated horizon, never a true t -> infinity statement.
    """
    t = series.times
    positive = t[t > 0]
    if positive.size < 2 or positive.max() / positive.min() < 100.0:
        raise InsufficientSpanError("series must span at least two decades of t")
    if tail is None:
        tail = (t.max() / 5.0, t.max())
    mask = series.window(*tail)
    if mask.sum() < 4:
        raise InsufficientSpanError("tail window contains fewer than 4 samples")
    tt = t[mask]
    beta = profile.beta
    witness = series.mse[mask] * tt[:, None] ** beta
    sup = witness.max(axis=0)
    spread = witness.max(axis=0) / witness.min(axis=0)
    logt = np.log(tt)
    A = np.column_stack([logt, np.ones_like(logt)])
    coef, *_ = np.linalg.lstsq(A, np.log(witness), rcond=None)
    slope = coef[0]
    mean_norm = np.linalg.norm(series.mean_err[mask], axis=2)
    with np.errstate(divide="ignore"):
        mean_log = np.log(mean_norm) + constants.mean_exp_coeff * tt[:, None] ** (1.0 - beta)
    bounded = (spread <= spread_max) & (np.abs(slope) <= slope_tol)
    return RateReport(
        follower_ids=series.follower_ids, tail_window=tail, beta=beta,
        ms_witness_sup=sup, ms_witness_spread=spread, ms_witness_slope=slope,
        mean_witness_log=mean_log, bounded=bounded,
    )
