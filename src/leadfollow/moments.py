"""Exact mean/covariance evolution of the follower error stack.

For a linear SDE with additive noise the first two moments obey closed ODEs:

    m' = F(t) m,
    P' = F(t) P + P F(t)^T + G(t) G(t)^T,

with F(t) = I_N (x) (A + B K1) - Gains(t) L2 (x) B K2 and G(t) the stacked
noise routing.  The oracle steps them with the RK4 propagator at the SDE step
``scen.dt`` (``integrate.rk4_path`` with noise, gains at quarter steps):

    m <- R_k m,    P <- R_k P R_k^T + S_k,

where R_k is the classical RK4 step matrix of F and S_k Simpson's rule for
the noise G G^T injected over the step, carried to its end by the same RK4
maps.  The congruence keeps P positive semidefinite by construction, and the
scheme is fourth order in dt like RK4 on the moment ODEs themselves.  This is
the designated ground truth that every Monte Carlo estimate is checked
against: no sampling error, only (checkable) discretization error.

F and the noise routing come from the same assembly the path simulator uses
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


class NonPSDError(RuntimeError):
    """Covariance eigenvalue fell below tolerance; the integrator step failed."""


def evolve_moments(scen, return_cov: bool = False):
    """Integrate the moment ODEs and sample them at the scenario's sample times.

    Returns a MomentSeries with provenance "oracle"; with ``return_cov`` the
    full covariance at the sample times is returned as a second value.  The
    mse and the positive-semidefiniteness check come from the samples alone;
    NonPSDError names the earliest sample whose covariance fails the check.
    """
    if scen.leaderless:
        raise ValueError("moment oracle requires a leader-following scenario")
    fol = scen.graph.follower_indices
    N, n = len(fol), scen.plant.n
    D = N * n
    dt = scen.dt
    F = scen.drift()
    sqrt_q = np.sqrt(noise_channels(scen, fol))
    _, wanted = scen.sample_grid()

    def diffusion(a):
        # Follower p's noise a_p sqrt(q_p) dB_p enters its last state component.
        G = np.zeros(a.shape[:-1] + (D, N))
        G[..., F.last, np.arange(N)] = a * sqrt_q
        return G

    m0 = (scen.init_states[fol] - scen.init_states[scen.graph.leader_index]).reshape(-1)
    m, P = rk4_path(F, (m0, np.zeros((D, D))),
                    lambda j: scen.profile.gain_all(j * (0.25 * dt)), dt, wanted, noise=diffusion)
    mean_err = m.reshape(-1, N, n)
    mse = np.empty((scen.sample_times.size, N))
    # The sample times increase, so NonPSDError names the first bad sample in time.
    for s_i in range(scen.sample_times.size):
        Ps = P[s_i]
        mse[s_i] = [float(e @ e) + np.trace(Ps[p * n:(p + 1) * n, p * n:(p + 1) * n])
                    for p, e in enumerate(mean_err[s_i])]
        lam_min = float(np.linalg.eigvalsh(0.5 * (Ps + Ps.T)).min())
        if lam_min < PSD_HARD_TOL:
            raise NonPSDError(f"covariance eigenvalue {lam_min:.3e} at sample {s_i}")

    series = MomentSeries(
        times=scen.sample_times, follower_ids=tuple(fol), mean_err=mean_err, mse=mse,
        halfwidth=None, provenance="oracle",
    )
    return (series, P) if return_cov else series


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
