"""Per-agent decaying consensus gains a_i(t) = mu_i (c_i t + d_i)^(-beta).

The whole family satisfies the three gain conditions by construction:
the envelope integral diverges because beta < 1, every gain is sandwiched
between multiples of t^(-beta) for large t, and any two members are
infinitesimal of the same order with ratio limits k_i / k_j where
k_i = mu_i c_i^(-beta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .matrices import eigenvalues


class GainError(ValueError):
    pass


class BadExponentError(GainError):
    pass


class NonPositiveParamError(GainError):
    pass


class NonPositiveSpectrumError(GainError):
    """The diagonally-scaled follower Laplacian has an eigenvalue with Re <= 0."""


def _frozen(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GainProfile:
    """Gain functions for agents ``agent_ids`` (node ids, typically followers 1..N)."""

    agent_ids: tuple[int, ...]
    mu: np.ndarray
    scale: np.ndarray
    shift: np.ndarray
    beta: float
    k: np.ndarray          # asymptotic coefficients mu_i scale_i^(-beta)
    c: np.ndarray          # k_i / max_j k_j, in (0, 1], at least one equal to 1
    mu1: float             # min k_i

    def gain_all(self, t) -> np.ndarray:
        """Gains of all covered agents; shape (..., len(agent_ids))."""
        tt = np.asarray(t, dtype=float)[..., None]
        return self.mu * (self.scale * tt + self.shift) ** (-self.beta)

    def envelope(self, t) -> np.ndarray | float:
        """Pointwise maximum gain over the covered agents."""
        return np.max(self.gain_all(t), axis=-1)

    def envelope_integral(self, t0: float, t1: float) -> float:
        """Adaptive quadrature of the envelope, split over decades for long spans."""
        if t1 <= t0:
            return 0.0
        cuts = [t0]
        while cuts[-1] > 0 and cuts[-1] * 10.0 < t1:
            cuts.append(cuts[-1] * 10.0)
        cuts.append(t1)
        total = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            if b > a:
                val, _ = quad(lambda s: float(self.envelope(s)), a, b, limit=200)
                total += val
        return total


def make_profile(params, beta: float, agent_ids=None) -> GainProfile:
    """Build a GainProfile from per-agent (mu, scale, shift) triples.

    ``agent_ids`` default to 1..N, the follower node ids.
    """
    beta = float(beta)
    if not (0.0 < beta < 1.0):
        raise BadExponentError(f"decay exponent must lie in (0, 1), got {beta}")
    arr = np.asarray(params, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise GainError("expected per-agent (mu, scale, shift) triples")
    if np.any(arr <= 0):
        raise NonPositiveParamError("all gain parameters must be positive")
    mu, scale, shift = arr[:, 0], arr[:, 1], arr[:, 2]
    if agent_ids is None:
        agent_ids = tuple(range(1, arr.shape[0] + 1))
    else:
        agent_ids = tuple(int(i) for i in agent_ids)
        if len(agent_ids) != arr.shape[0]:
            raise GainError("agent_ids length must match the parameter list")
    k = mu * scale ** (-beta)
    c = k / k.max()
    return GainProfile(
        agent_ids=agent_ids, mu=_frozen(mu), scale=_frozen(scale), shift=_frozen(shift),
        beta=beta, k=_frozen(k), c=_frozen(c), mu1=float(k.min()),
    )


@dataclass(frozen=True)
class RateConstants:
    """Constants entering the mean and mean-square convergence-rate statements."""

    lambda_min: float          # min real part of eig(C L2)
    eps: float                 # min(1, lambda_min) / 2
    mean_exp_coeff: float      # mu1 (lambda_min - eps) / (1 - beta)


def rate_constants(profile: GainProfile, L2) -> RateConstants:
    """Rate constants from the gain profile and the follower Laplacian block."""
    C = np.diag(profile.c)
    spec = eigenvalues(C @ np.asarray(L2, dtype=float))
    lam = spec.min_real_part
    if lam <= 0:
        raise NonPositiveSpectrumError(
            f"min real part of eig(C L2) is {lam:.3e}; spanning-tree premise fails"
        )
    eps = 0.5 * min(1.0, lam)
    coeff = profile.mu1 * (lam - eps) / (1.0 - profile.beta)
    return RateConstants(lambda_min=lam, eps=eps, mean_exp_coeff=coeff)


def decay_dominance_log_ratios(profile: GainProfile, b: float, ts) -> np.ndarray:
    """log of exp(-b * int_1^t envelope) / t^(-beta) at the requested times.

    The exponential loses to any power of t; the returned log-ratios should be
    strictly decreasing for this gain family.  Computed in log space because the
    raw ratio underflows quickly.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    out = np.empty(ts.size)
    for idx, t in enumerate(ts):
        out[idx] = -b * profile.envelope_integral(1.0, float(t)) + profile.beta * np.log(t)
    return out
