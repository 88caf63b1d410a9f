"""Shared fixed-step integration: the sample-time grid map and the package's one
classical RK4, which takes its time-varying input precomputed at every stage."""

from __future__ import annotations

import numpy as np


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


def rk4_path(f, y0, inputs, dt: float, slot):
    """Classical RK4 for y' = f(u, y) with the input u given at every stage.

    ``inputs[2k]``, ``inputs[2k + 1]`` and ``inputs[2k + 2]`` are the input at
    the start, midpoint and end of step k.  ``slot`` is ``snap_to_grid``'s
    step-to-sample map: its length is the step count plus one, and the state at
    grid point k (y0 at k = 0) is stored as sample ``slot[k]`` unless that is -1.
    Returns the samples stacked along axis 0.
    """
    y = np.array(y0, dtype=complex if np.iscomplexobj(y0) else float)
    states = np.empty((int(slot.max()) + 1,) + y.shape, dtype=y.dtype)
    if slot[0] >= 0:
        states[slot[0]] = y
    for k in range(slot.size - 1):
        u0, uh, u1 = inputs[2 * k], inputs[2 * k + 1], inputs[2 * k + 2]
        k1 = f(u0, y)
        k2 = f(uh, y + 0.5 * dt * k1)
        k3 = f(uh, y + 0.5 * dt * k2)
        k4 = f(u1, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if slot[k + 1] >= 0:
            states[slot[k + 1]] = y
    return states
