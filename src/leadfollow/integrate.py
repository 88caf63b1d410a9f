"""Shared fixed-step integration: the sample-time grid map and the package's one
classical RK4.

Every RK4 caller in ``src/`` integrates a linear ODE y' = M(u) y: the Jordan
check and the moment oracle directly, the filter check with its forcing in the
augmented matrix [[M, c], [0, 0]] acting on (y, 1).  On a linear ODE one
classical RK4 step of length h is the exact matrix map y <- R y with

    R = I + h/6 (K1 + 2 K2 + 2 K3 + K4),
    K1 = M0,  K2 = Mh (I + h/2 K1),  K3 = Mh (I + h/2 K2),  K4 = M1 (I + h K3),

where M0, Mh and M1 are M at the start, midpoint and end of the step.  The
maps of BLOCK_STEPS steps are built at once with stacked matmuls, so a step
costs one matmul in Python.  Every step's arithmetic is the same whatever the
block length, so results do not depend on BLOCK_STEPS.
"""

from __future__ import annotations

import numpy as np

BLOCK_STEPS = 256


def snap_to_grid(times, dt: float, steps: int, t0: float = 0.0):
    """Snap sample times to the nearest step of the grid t0 + k dt, k = 0..steps.

    Returns (idx, slot): ``idx[s]`` is the step of sample s and ``slot[k]`` the
    sample stored at step k (-1 for none).  Raises ValueError for a time outside
    the span and for distinct samples that snap to the same step.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    idx = np.rint((times - t0) / dt).astype(int)
    if np.any(idx < 0) or np.any(idx > steps):
        raise ValueError("sample time outside the integration span")
    shared, counts = np.unique(idx, return_counts=True)
    shared = shared[counts > 1]
    if shared.size:
        groups = [times[idx == k].tolist() for k in shared]
        raise ValueError(f"sample times {groups} snap to the same step of dt = {dt:g}")
    slot = np.full(steps + 1, -1, dtype=int)
    slot[idx] = np.arange(idx.size)
    return idx, slot


def _rk4_maps(M0, Mh, M1, h) -> np.ndarray:
    """RK4 step matrices (nb, d, d) from M stacked at the start, midpoint and
    end of nb steps of length h (a scalar, or one per step as (nb, 1, 1))."""
    eye = np.eye(M0.shape[-1])
    K = M0
    acc = M0.copy()
    for Mk, c, w in ((Mh, 0.5 * h, 2.0), (Mh, 0.5 * h, 2.0), (M1, h, 1.0)):
        K = Mk @ (eye + c * K)
        acc += w * K
    acc *= h / 6.0
    acc += eye
    return acc


def _blocks(steps: int):
    for k0 in range(0, steps, BLOCK_STEPS):
        yield k0, min(k0 + BLOCK_STEPS, steps)


def rk4_path(M, y0, inputs, dt, slot, noise=None):
    """Classical RK4 for the linear ODE y' = M(u) y, sampled on the step grid.

    ``inputs(j)`` is the input u at the stage points j (an index array):
    2k, 2k + 1 and 2k + 2 are the start, midpoint and end of step k.  ``M``
    maps stacked inputs to stacked (d, d) matrices; y0 is a vector or a (d, r)
    matrix.  ``slot`` maps grid points to samples, like ``snap_to_grid``'s:
    its length is the step count plus one, and the state at grid point k (y0
    at k = 0) is stored as sample ``slot[k]`` unless that is -1.  Returns the
    samples stacked along axis 0.

    With ``noise``, the path is the mean and covariance of the linear SDE
    dy = M(u) y dt + G(u) dW, where ``noise`` maps stacked inputs to stacked
    (d, p) matrices G.  ``dt`` may then hold one length per step.  The stage
    points are quarter steps (4k to 4k + 4 span step k), y0 is the pair
    (mean, covariance) and each step is

        m <- R m,    P <- R P R^T + S,

    with S Simpson's rule for the noise injected over the step,
    int Phi(t1, s) G G^T Phi(t1, s)^T ds, taking Phi(t1, t0) = R and
    Phi(t1, t_mid) the RK4 map of the step's second half.  S is a Gram matrix,
    so P stays positive semidefinite by construction.  Returns the pair
    (means, covariances).
    """
    wanted = slot.tolist()
    count = int(slot.max()) + 1
    if noise is None:
        y = np.array(y0, dtype=complex if np.iscomplexobj(y0) else float)
        states = np.empty((count,) + y.shape, dtype=y.dtype)
        if wanted[0] >= 0:
            states[wanted[0]] = y
        for k0, k1 in _blocks(slot.size - 1):
            Ms = M(inputs(np.arange(2 * k0, 2 * k1 + 1)))
            R = _rk4_maps(Ms[:-1:2], Ms[1::2], Ms[2::2], dt)
            for k in range(k1 - k0):
                y = R[k] @ y
                s = wanted[k0 + k + 1]
                if s >= 0:
                    states[s] = y
        return states

    h = np.broadcast_to(dt, (slot.size - 1,))
    m, P = (np.array(v, dtype=float) for v in y0)
    means = np.empty((count,) + m.shape)
    covs = np.empty((count,) + P.shape)
    if wanted[0] >= 0:
        means[wanted[0]], covs[wanted[0]] = m, P
    for k0, k1 in _blocks(slot.size - 1):
        u = inputs(np.arange(4 * k0, 4 * k1 + 1))
        Ms, G = M(u), noise(u[::2])
        hb = h[k0:k1, None, None]
        R = _rk4_maps(Ms[:-1:4], Ms[2::4], Ms[4::4], hb)
        R_half = _rk4_maps(Ms[2::4], Ms[3::4], Ms[4::4], 0.5 * hb)
        W = np.concatenate([np.sqrt(hb / 6.0) * (R @ G[:-1:2]),
                            np.sqrt(2.0 * hb / 3.0) * (R_half @ G[1::2]),
                            np.sqrt(hb / 6.0) * G[2::2]], axis=-1)
        S = W @ W.swapaxes(-1, -2)
        for k in range(k1 - k0):
            Rk = R[k]
            m = Rk @ m
            P = Rk @ P @ Rk.T
            P += S[k]
            s = wanted[k0 + k + 1]
            if s >= 0:
                means[s], covs[s] = m, P
    return means, covs
