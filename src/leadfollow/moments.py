"""Exact mean/covariance evolution of the follower error stack.

For a linear SDE with additive noise the first two moments obey closed ODEs:

    m' = F(t) m,
    P' = F(t) P + P F(t)^T + G(t) G(t)^T,

with F(t) = I_N (x) (A + B K1) - Gains(t) L2 (x) B K2 and G(t) the stacked
noise routing.  The oracle steps them with the RK4 propagator
(``integrate.rk4_path`` with noise):

    m <- R_k m,    P <- R_k P R_k^T + S_k,

where R_k is the classical RK4 step matrix of F and S_k Simpson's rule for
the noise G G^T injected over the step, carried to its end by the same RK4
maps.  The congruence keeps P positive semidefinite by construction, and the
scheme is fourth order in the step like RK4 on the moment ODEs themselves.

The oracle has its own grid, independent of the SDE step ``scen.dt``: each
interval between consecutive sample times (and from 0 to the first) is split
into equal steps no longer than h_max = STEP_SCALE / r, with r the faster of
two rates at t = 0, where the gains are largest: the spectral radius of F and
the gains' relative decay rate.  The grid lands on every sample time, so no
sample is interpolated or snapped.  On ``fig1`` (r = 3, h_max = 0.01, 2015
steps to t = 20) the mse is within 1.6e-9 relative of a run at h_max / 4.
Each run repeats itself at 2 h_max and reports the Richardson estimate of its
own relative mse error, ``step_error``.

This is the designated ground truth that every Monte Carlo estimate is
checked against: no sampling error, only measured discretization error.  F
and the noise routing come from the same assembly the path simulator uses
(``plant.closed_loop_drift``, ``sde.noise_channels``).  The oracle's
independence from that assembly lives in the tests, which check it against a
per-stage RK4 of the moment ODEs in the dense Kronecker form, an adaptive ODE
solve of the mean and its own step-halving error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrate import rk4_path
from .sde import noise_channels
from .series import MomentSeries

PSD_HARD_TOL = -1e-6
# oracle_rate_check's bounds on mse * t^beta over the tail: max/min, |log-log slope|.
RATE_SPREAD_MAX = 10.0
RATE_SLOPE_TOL = 0.15
# h_max times the fastest rate at t = 0; 0.03 gives h_max = 0.01 on fig1.
STEP_SCALE = 0.03


class NonPSDError(RuntimeError):
    """Covariance eigenvalue fell below tolerance; the integrator step failed."""


def max_step(scen) -> float:
    """The oracle's longest step, STEP_SCALE over the faster of the spectral
    radius of F and the gains' relative decay rate beta c / d, both at t = 0."""
    a0 = scen.profile.gain_all(0.0)
    radius = np.abs(np.linalg.eigvals(scen.drift()(a0))).max()
    decay = scen.profile.beta * (scen.profile.scale / scen.profile.shift).max()
    return STEP_SCALE / max(radius, decay)


def step_grid(times, h_max: float):
    """The grid 0 = t_0 < ... < t_K = times[-1] that splits each interval
    between consecutive sample times (and from 0 to the first) into
    ceil(length / h_max) equal steps.  Returns (t, slot) with ``slot[k]`` the
    sample at grid point k or -1; the sample grid points equal ``times``."""
    ends = np.concatenate([[0.0], times])
    # The spectral radius of a defective F is only accurate to ~1e-8, so a
    # step within 1e-6 relative of h_max counts as h_max.
    counts = np.ceil(np.diff(ends) / h_max * (1.0 - 1e-6)).astype(int)
    t = np.concatenate([[0.0]] + [np.linspace(a, b, c + 1)[1:]
                                  for a, b, c in zip(ends[:-1], ends[1:], counts)])
    slot = np.full(t.size, -1)
    slot[np.cumsum(counts)] = np.arange(counts.size)
    return t, slot


def _propagate(scen, h_max: float):
    """Mean errors (S, N, n) and covariances (S, D, D) at the sample times,
    stepped on ``step_grid(scen.sample_times, h_max)``."""
    fol = scen.graph.follower_indices
    N, n = len(fol), scen.plant.n
    D = N * n
    F = scen.drift()
    sqrt_q = np.sqrt(noise_channels(scen, fol))
    t, slot = step_grid(scen.sample_times, h_max)

    def diffusion(a):
        # Follower p's noise a_p sqrt(q_p) dB_p enters its last state component.
        G = np.zeros(a.shape[:-1] + (D, N))
        G[..., F.last, np.arange(N)] = a * sqrt_q
        return G

    m0 = (scen.init_states[fol] - scen.init_states[scen.graph.leader_index]).reshape(-1)
    m, P = rk4_path(F, m0, scen.profile.gain_all, t, slot, noise=diffusion)
    return m.reshape(-1, N, n), P


def _mse(mean_err, P):
    """Per-follower E||e_i||^2: squared mean plus the trace of its covariance block."""
    S, N, n = mean_err.shape
    return (mean_err ** 2).sum(axis=2) + np.einsum("sii->si", P).reshape(S, N, n).sum(axis=2)


def evolve_moments(scen) -> MomentSeries:
    """Integrate the moment ODEs and sample them at the scenario's sample times.

    Returns a MomentSeries with provenance "oracle" and its ``step_error``.
    The positive-semidefiniteness check comes from the samples alone;
    NonPSDError names the earliest sample whose covariance fails it.
    """
    if scen.leaderless:
        raise ValueError("moment oracle requires a leader-following scenario")
    h_max = max_step(scen)
    mean_err, P = _propagate(scen, h_max)
    lam_min = np.linalg.eigvalsh(0.5 * (P + P.swapaxes(-1, -2)))[:, 0]
    bad = np.flatnonzero(lam_min < PSD_HARD_TOL)
    # The sample times increase, so NonPSDError names the first bad sample in time.
    if bad.size:
        raise NonPSDError(f"covariance eigenvalue {lam_min[bad[0]]:.3e} at sample {bad[0]}")
    mse = _mse(mean_err, P)
    # Richardson: a fourth-order step leaves 16 times the error at 2 h_max.
    gap = np.abs(mse - _mse(*_propagate(scen, 2.0 * h_max)))
    step_error = float(np.divide(gap, 15.0 * mse, out=np.zeros_like(gap), where=gap > 0).max())

    return MomentSeries(
        times=scen.sample_times, follower_ids=tuple(scen.graph.follower_indices),
        mean_err=mean_err, mse=mse, halfwidth=None, provenance="oracle", step_error=step_error,
    )


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
                      tail: tuple[float, float] | None = None) -> RateReport:
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
    bounded = (spread <= RATE_SPREAD_MAX) & (np.abs(slope) <= RATE_SLOPE_TOL)
    return RateReport(
        follower_ids=series.follower_ids, tail_window=tail, beta=beta,
        ms_witness_sup=sup, ms_witness_spread=spread, ms_witness_slope=slope,
        mean_witness_log=mean_log, bounded=bounded,
    )
