"""Per-agent decaying consensus gains a_i(t) = mu_i (c_i t + d_i)^(-beta).

The whole family satisfies the three gain conditions by construction:
the envelope integral diverges because beta < 1, every gain is sandwiched
between multiples of t^(-beta) for large t, and any two members are
infinitesimal of the same order with ratio limits k_i / k_j where
k_i = mu_i c_i^(-beta).

The envelope integral u(t) = int_{t0}^t max_i a_i is exact.  Two gains are
equal where s_i x + d_i = rho (s_j x + d_j), rho = (mu_i / mu_j)^(1/beta): a
linear equation in x, so they cross at most once.  Between crossings the
envelope is one gain, with the primitive mu (s x + d)^(1-beta) / (s (1-beta)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import eigenvalues, frozen_copy


class GainError(ValueError):
    pass


class BadExponentError(GainError):
    pass


class NonPositiveParamError(GainError):
    pass


class NonPositiveSpectrumError(GainError):
    """The diagonally-scaled follower Laplacian has an eigenvalue with Re <= 0."""


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

    def envelope_integral(self, t0: float, t) -> np.ndarray:
        """Exact int_{t0}^{t} of the envelope, elementwise over ``t`` >= t0."""
        t = np.asarray(t, dtype=float)
        if np.any(t < t0):
            raise ValueError("the envelope integral needs t >= t0")
        mu, s, d = self.mu, self.scale, self.shift
        # rho over- or underflows only for crossings at x < 0; those, parallel
        # and identical gains give inf or nan and are dropped.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            rho = (mu[:, None] / mu[None, :]) ** (1.0 / self.beta)
            cross = (rho * d[None, :] - d[:, None]) / (s[:, None] - rho * s[None, :])
        starts = np.append(t0, np.unique(cross[np.isfinite(cross) & (cross > t0)]))
        # One point inside each piece names the gain that is the envelope there.
        inside = np.append(0.5 * (starts[:-1] + starts[1:]), starts[-1] + 1.0 + abs(starts[-1]))
        agent = np.argmax(self.gain_all(inside), axis=-1)

        def piece(k, x):
            """int of agent[k]'s gain from starts[k] to x, free of cancellation."""
            i, b = agent[k], starts[k]
            z = s[i] * b + d[i]
            g = 1.0 - self.beta
            return mu[i] * z ** g / (s[i] * g) * np.expm1(g * np.log1p(s[i] * (x - b) / z))

        at_starts = np.append(0.0, np.cumsum(piece(np.arange(starts.size - 1), starts[1:])))
        k = np.searchsorted(starts, t, side="right") - 1
        return at_starts[k] + piece(k, t)


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
        agent_ids=agent_ids, mu=frozen_copy(mu), scale=frozen_copy(scale), shift=frozen_copy(shift),
        beta=beta, k=frozen_copy(k), c=frozen_copy(c), mu1=float(k.min()),
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
    return -b * profile.envelope_integral(1.0, ts) + profile.beta * np.log(ts)
