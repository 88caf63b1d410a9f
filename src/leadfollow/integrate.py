"""The package's matrix classical RK4, on any increasing time grid.

Its callers integrate real linear ODEs y' = M(u(t)) y: the moment oracle
directly, the filter check with its forcing in the augmented matrix
[[M, c], [0, 0]] acting on (y, 1); the Jordan check's reference is RK4 in
scalar series (``rates``).  A classical RK4 step of length h is the map y <- R y,

    R = I + h/6 (K1 + 2 K2 + 2 K3 + K4),
    K1 = M0,  K2 = Mh (I + h/2 K1),  K3 = Mh (I + h/2 K2),  K4 = M1 (I + h K3),

where M0, Mh and M1 are M at the start, midpoint and end of the step.  The
steps are grouped in sub-blocks of W, aligned to multiples of W from the
grid's first step, and a block is SUBS whole sub-blocks; only the grid's last
sub-block is padded, with identity maps.  The maps of a block are built at
once with stacked matmuls, and the maps inside every sub-block of a block are
prefix-composed together, W - 1 stacked matmuls in all.  Each sub-block's
start state then needs one matmul in Python, and the wanted states come from
their sub-block's start state in one more stacked matmul, so a block of 256
steps costs about 31 Python turns instead of 256.  Every state is the same
product of the same maps whatever the block length, so results do not depend
on SUBS.  The Euler-Maruyama engine in ``sde`` steps in the same blocks.
"""

from __future__ import annotations

import numpy as np

W = 16  # steps per sub-block
SUBS = 16  # sub-blocks per block, here and in sde


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


def _on_sub_blocks(maps, fill) -> np.ndarray:
    """The block's ``maps`` (nb, d, d) laid out on whole sub-blocks
    (n_sub, W, d, d), the last one padded with ``fill``."""
    nb = maps.shape[0]
    out = np.empty((-(-nb // W) * W,) + maps.shape[1:])
    out[:nb] = maps
    out[nb:] = fill
    return out.reshape((-1, W) + maps.shape[1:])


def rk4_path(M, y0, u, t, slot, noise=None):
    """Classical RK4 for the real linear ODE y' = M(u(t)) y on the step grid ``t``.

    ``t`` holds the K + 1 increasing grid times, and step k runs from t[k] to
    t[k + 1].  ``u`` maps stacked times to stacked inputs and ``M`` maps
    stacked inputs to stacked real (d, d) matrices; y0 is a real vector or
    (d, r) matrix.  A complex system goes in its real form; a complex y0 or M
    raises TypeError.  The state at grid point k (y0 at k = 0) is stored as
    sample ``slot[k]`` unless that is -1.  Returns the samples stacked along
    axis 0.  The steps go in blocks of SUBS whole sub-blocks of W steps, and
    the samples do not depend on SUBS.

    With ``noise``, the path is the mean and covariance of the linear SDE
    dy = M(u) y dt + G(u) dW from covariance 0, where ``noise`` maps stacked
    inputs to stacked (d, p) matrices G.  y0 is then the initial mean, each
    step is

        m <- R m,    P <- R P R^T + S,

    with S Simpson's rule for the noise injected over the step,
    int Phi(t1, s) G G^T Phi(t1, s)^T ds, taking Phi(t1, t0) = R and
    Phi(t1, t_mid) the RK4 map of the step's second half.  Inside a sub-block
    the injected noise composes as S_j <- R_j S_{j-1} R_j^T + S_j, so P stays
    a congruence plus a Gram matrix, positive semidefinite by construction.
    Returns the pair (means, covariances).
    """
    if np.iscomplexobj(y0):
        raise TypeError("rk4_path is real-only: pass a complex system in its real form")
    t = np.asarray(t, dtype=float)
    h = np.diff(t)
    # Stage points, q per step: qk to qk + q span step k and qk + q/2 is its
    # midpoint.  The noise terms also read the quarter points, so q = 4 there.
    q = 2 if noise is None else 4
    points = np.append((t[:-1, None] + h[:, None] * np.arange(q) / q).ravel(), t[-1])
    shape = np.shape(y0)
    y = np.array(y0, dtype=float).reshape(shape[0], -1)
    d = y.shape[0]
    eye = np.eye(d)
    count = int(slot.max()) + 1
    states = np.empty((count,) + y.shape)
    P = np.zeros((d, d))
    covs = np.empty((count, d, d)) if noise is not None else None
    if slot[0] >= 0:
        states[slot[0]] = y
        if noise is not None:
            covs[slot[0]] = P
    for k0 in range(0, h.size, SUBS * W):
        k1 = min(k0 + SUBS * W, h.size)
        ub = u(points[q * k0:q * k1 + 1])
        Ms = M(ub)
        if np.iscomplexobj(Ms):
            raise TypeError("rk4_path is real-only: M returned complex matrices")
        hb = h[k0:k1, None, None]
        R = _rk4_maps(Ms[:-1:q], Ms[q // 2::q], Ms[q::q], hb)
        Rs = _on_sub_blocks(R, eye)
        if noise is not None:
            G = noise(ub[::2])
            R_half = _rk4_maps(Ms[2::4], Ms[3::4], Ms[4::4], 0.5 * hb)
            V = np.concatenate([np.sqrt(hb / 6.0) * (R @ G[:-1:2]),
                                np.sqrt(2.0 * hb / 3.0) * (R_half @ G[1::2]),
                                np.sqrt(hb / 6.0) * G[2::2]], axis=-1)
            Ss = _on_sub_blocks(V @ V.swapaxes(-1, -2), 0.0)
        # Prefix products inside every sub-block at once: position j then maps
        # its sub-block's start state to the state after step j.
        for j in range(1, W):
            if noise is not None:
                Ss[:, j] += Rs[:, j] @ Ss[:, j - 1] @ Rs[:, j].swapaxes(-1, -2)
            Rs[:, j] = Rs[:, j] @ Rs[:, j - 1]
        n_sub = Rs.shape[0]
        starts = np.empty((n_sub,) + y.shape)
        P_starts = np.empty((n_sub, d, d)) if noise is not None else None
        for s in range(n_sub):
            starts[s] = y
            if noise is not None:
                P_starts[s] = P
            y = Rs[s, -1] @ y
            if noise is not None:
                P = Rs[s, -1] @ P @ Rs[s, -1].T + Ss[s, -1]
        # The wanted states, each from its sub-block's start state.
        sl = slot[k0 + 1:k1 + 1]
        keep = np.flatnonzero(sl >= 0)
        Rw = Rs.reshape((-1, d, d))[keep]
        states[sl[keep]] = Rw @ starts[keep // W]
        if noise is not None:
            covs[sl[keep]] = (Rw @ P_starts[keep // W] @ Rw.swapaxes(-1, -2)
                              + Ss.reshape((-1, d, d))[keep])
    states = states.reshape((count,) + shape)
    return states if noise is None else (states, covs)
