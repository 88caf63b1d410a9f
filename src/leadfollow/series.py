"""Moment time series shared by the Monte Carlo estimator and the exact oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MomentSeries:
    """Per-follower error moments on a time grid.

    ``halfwidth`` (95% confidence half-widths of the mean-square errors) is
    present exactly when the provenance is Monte Carlo.  ``step_error`` is the
    oracle's Richardson estimate of its own largest relative mse error; it is
    None for Monte Carlo series and for series read back from CSV.
    """

    times: np.ndarray          # (S,)
    follower_ids: tuple[int, ...]
    mean_err: np.ndarray       # (S, N, n): sample/exact mean of x_i - x_0
    mse: np.ndarray            # (S, N): E ||x_i - x_0||^2
    halfwidth: np.ndarray | None
    provenance: str            # "monte_carlo" | "oracle"
    step_error: float | None

    def __post_init__(self):
        if (self.halfwidth is not None) != (self.provenance == "monte_carlo"):
            raise ValueError("half-widths present iff provenance is monte_carlo")
        if not np.all(self.mse >= 0):  # NaN fails too
            raise ValueError("mean-square errors must be nonnegative")

    @property
    def stderr(self) -> np.ndarray:
        """Standard errors of the mse estimates (half-width / 1.96)."""
        if self.halfwidth is None:
            raise ValueError("standard errors only defined for Monte Carlo series")
        return self.halfwidth / 1.96

    def to_csv(self, path) -> None:
        """One row per sample time per follower, time-major."""
        s, f = np.indices(self.mse.shape).reshape(2, -1)
        cols = {"t": self.times[s], "follower": np.asarray(self.follower_ids)[f]}
        cols.update({f"mean_err_{k + 1}": self.mean_err[..., k].ravel()
                     for k in range(self.mean_err.shape[2])})
        cols["mse"] = self.mse.ravel()
        if self.halfwidth is not None:
            cols["mse_halfwidth"] = self.halfwidth.ravel()
        write_csv(path, cols)


def write_csv(path, columns: dict) -> None:
    """Write the equal-length 1-D ``columns`` under a header of their names:
    integer columns as %d, the rest as %.17g, which round-trips a float64.
    Each block of 1024 rows is formatted with one %."""
    cols = list(columns.values())
    line = ",".join("%d" if col.dtype.kind in "iu" else "%.17g" for col in cols) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for i in range(0, cols[0].size, 1024):
            flat = [None] * len(cols) * len(cols[0][i:i + 1024])
            for j, col in enumerate(cols):
                flat[j::len(cols)] = col[i:i + 1024].tolist()
            fh.write(line * (len(flat) // len(cols)) % tuple(flat))


def from_csv(path) -> MomentSeries:
    """Inverse of MomentSeries.to_csv.  The rows must form the grid it writes,
    time-major: the same followers in the same order at each of the
    increasing sample times.  Anything else raises ValueError."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    has_hw = header[-1] == "mse_halfwidth"
    n = len(header) - (4 if has_hw else 3)
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    N = int(np.count_nonzero(data[:, 0] == data[:1, 0]))
    if not N or data.shape[0] % N:
        raise ValueError(f"{path}: {data.shape[0]} rows do not fill a grid of {N} followers")
    grid = data.reshape(-1, N, data.shape[1])
    times, fids = grid[:, 0, 0], grid[0, :, 1]
    if (np.any(grid[:, :, 0] != times[:, None]) or np.any(grid[:, :, 1] != fids)
            or np.any(np.diff(times) <= 0)):
        raise ValueError(f"{path}: rows are not a time-major grid of increasing times")
    return MomentSeries(
        times=times, follower_ids=tuple(int(f) for f in fids), mean_err=grid[:, :, 2:2 + n],
        mse=grid[:, :, 2 + n], halfwidth=grid[:, :, 3 + n] if has_hw else None,
        provenance="monte_carlo" if has_hw else "oracle", step_error=None,
    )
