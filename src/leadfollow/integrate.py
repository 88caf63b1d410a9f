"""The package's one classical RK4, on any increasing time grid.

Every RK4 caller in ``src/`` integrates a linear ODE y' = M(u(t)) y: the Jordan
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


def _rk4_maps(M0, Mh, M1, h) -> np.ndarray:
    """RK4 step matrices (nb, d, d) from M stacked at the start, midpoint and
    end of nb steps of lengths h (nb, 1, 1)."""
    eye = np.eye(M0.shape[-1])
    K = M0
    acc = M0.copy()
    for Mk, c, w in ((Mh, 0.5 * h, 2.0), (Mh, 0.5 * h, 2.0), (M1, h, 1.0)):
        K = Mk @ (eye + c * K)
        acc += w * K
    acc *= h / 6.0
    acc += eye
    return acc


def rk4_path(M, y0, u, t, slot, noise=None):
    """Classical RK4 for the linear ODE y' = M(u(t)) y on the step grid ``t``.

    ``t`` holds the K + 1 increasing grid times, and step k runs from t[k] to
    t[k + 1].  ``u`` maps stacked times to stacked inputs and ``M`` maps
    stacked inputs to stacked (d, d) matrices; y0 is a vector or a (d, r)
    matrix.  The state at grid point k (y0 at k = 0) is stored as sample
    ``slot[k]`` unless that is -1.  Returns the samples stacked along axis 0.

    With ``noise``, the path is the mean and covariance of the linear SDE
    dy = M(u) y dt + G(u) dW from covariance 0, where ``noise`` maps stacked
    inputs to stacked (d, p) matrices G.  y0 is then the initial mean, each
    step is

        m <- R m,    P <- R P R^T + S,

    with S Simpson's rule for the noise injected over the step,
    int Phi(t1, s) G G^T Phi(t1, s)^T ds, taking Phi(t1, t0) = R and
    Phi(t1, t_mid) the RK4 map of the step's second half.  S is a Gram matrix,
    so P stays positive semidefinite by construction.  Returns the pair
    (means, covariances).
    """
    t = np.asarray(t, dtype=float)
    h = np.diff(t)
    # Stage points, q per step: qk to qk + q span step k and qk + q/2 is its
    # midpoint.  The noise terms also read the quarter points, so q = 4 there.
    q = 2 if noise is None else 4
    points = np.append((t[:-1, None] + h[:, None] * np.arange(q) / q).ravel(), t[-1])
    wanted = slot.tolist()
    count = int(slot.max()) + 1
    y = np.array(y0, dtype=complex if np.iscomplexobj(y0) else float)
    states = np.empty((count,) + y.shape, dtype=y.dtype)
    if noise is not None:
        P = np.zeros(y.shape * 2)
        covs = np.empty((count,) + P.shape)
    if wanted[0] >= 0:
        states[wanted[0]] = y
        if noise is not None:
            covs[wanted[0]] = P
    for k0 in range(0, h.size, BLOCK_STEPS):
        k1 = min(k0 + BLOCK_STEPS, h.size)
        ub = u(points[q * k0:q * k1 + 1])
        Ms = M(ub)
        hb = h[k0:k1, None, None]
        R = _rk4_maps(Ms[:-1:q], Ms[q // 2::q], Ms[q::q], hb)
        if noise is not None:
            G = noise(ub[::2])
            R_half = _rk4_maps(Ms[2::4], Ms[3::4], Ms[4::4], 0.5 * hb)
            W = np.concatenate([np.sqrt(hb / 6.0) * (R @ G[:-1:2]),
                                np.sqrt(2.0 * hb / 3.0) * (R_half @ G[1::2]),
                                np.sqrt(hb / 6.0) * G[2::2]], axis=-1)
            S = W @ W.swapaxes(-1, -2)
        for k, s in enumerate(wanted[k0 + 1:k1 + 1]):
            y = R[k] @ y
            if noise is not None:
                P = R[k] @ P @ R[k].T
                P += S[k]
            if s >= 0:
                states[s] = y
                if noise is not None:
                    covs[s] = P
    return states if noise is None else (states, covs)
