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
    """Inverse of MomentSeries.to_csv."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    has_hw = header[-1] == "mse_halfwidth"
    n = len(header) - (4 if has_hw else 3)
    data = np.array([[float(v) for v in r] for r in rows])
    times = np.unique(data[:, 0])
    fids = tuple(int(v) for v in np.unique(data[:, 1]))
    S, N = times.size, len(fids)
    mean_err = np.empty((S, N, n))
    mse = np.empty((S, N))
    hw = np.empty((S, N)) if has_hw else None
    t_index = {t: s for s, t in enumerate(times)}
    f_index = {f: k for k, f in enumerate(fids)}
    for r in data:
        s, f = t_index[r[0]], f_index[int(r[1])]
        mean_err[s, f] = r[2:2 + n]
        mse[s, f] = r[2 + n]
        if has_hw:
            hw[s, f] = r[3 + n]
    return MomentSeries(
        times=times, follower_ids=fids, mean_err=mean_err, mse=mse,
        halfwidth=hw, provenance="monte_carlo" if has_hw else "oracle", step_error=None,
    )
