"""Shared fixed-step integration helpers: the sample-time grid map and classical RK4."""

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


def rk4_step(f, t: float, y, dt: float):
    """One classical fourth-order Runge-Kutta step of y' = f(t, y)."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_path(f, y0, t0: float, t_end: float, dt: float, record_times):
    """Integrate y' = f(t, y) on a uniform grid, recording at ``record_times``.

    Recorded times are snapped to the nearest grid point.  Returns
    (times, states) with states stacked along axis 0.
    """
    steps = int(round((t_end - t0) / dt))
    idx, slot = snap_to_grid(record_times, dt, steps, t0)
    y = np.array(y0, dtype=complex if np.iscomplexobj(y0) else float)
    states = np.empty((idx.size,) + y.shape, dtype=y.dtype)
    if slot[0] >= 0:
        states[slot[0]] = y
    for k in range(steps):
        y = rk4_step(f, t0 + k * dt, y, dt)
        if slot[k + 1] >= 0:
            states[slot[k + 1]] = y
    return t0 + idx * dt, states
