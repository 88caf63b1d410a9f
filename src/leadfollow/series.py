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
        if np.any(self.mse < 0):
            raise ValueError("mean-square errors must be nonnegative")

    @property
    def stderr(self) -> np.ndarray:
        """Standard errors of the mse estimates (half-width / 1.96)."""
        if self.halfwidth is None:
            raise ValueError("standard errors only defined for Monte Carlo series")
        return self.halfwidth / 1.96

    def window(self, t_lo: float, t_hi: float) -> np.ndarray:
        """Boolean mask of sample times inside [t_lo, t_hi]."""
        return (self.times >= t_lo) & (self.times <= t_hi)

    def to_csv(self, path) -> None:
        n = self.mean_err.shape[2]
        cols = ["t", "follower"] + [f"mean_err_{k + 1}" for k in range(n)] + ["mse"]
        if self.halfwidth is not None:
            cols.append("mse_halfwidth")
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for s, t in enumerate(self.times):
                for f, fid in enumerate(self.follower_ids):
                    row = [f"{t:.17g}", str(fid)]
                    row += [f"{v:.17g}" for v in self.mean_err[s, f]]
                    row.append(f"{self.mse[s, f]:.17g}")
                    if self.halfwidth is not None:
                        row.append(f"{self.halfwidth[s, f]:.17g}")
                    fh.write(",".join(row) + "\n")


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
