"""The benchmark's workloads: scenario documents, CLI call sequences, output checks.

Each workload turns ``--seed`` into one scenario document (a bundled preset
with its noise seed, ``monte_carlo.base_seed``, derived from the seed and a
few integration/Monte Carlo fields fixed here), and replays one CLI
subcommand's sequence of public calls on it.  Only the noise seed depends on
``--seed``, so the exact-oracle moments and the deterministic verification
verdicts are the same for every seed and can be stored once in ``refs/``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from types import SimpleNamespace
from typing import Callable

import numpy as np

REFS = Path(__file__).resolve().parent / "refs"

# Family-wise false-alarm probability of the Monte Carlo vs oracle comparison.
# The per-sample threshold is Bonferroni-corrected for the number of samples
# compared, so a different (valid) noise stream fails it with probability
# below this, while a wrong second moment still shows.
MC_FAMILY_ALPHA = 1e-6

# The by-design failures (acceptance criteria 01 and 04, the envelope FAIL of
# reproduce-fig1) are never gated here.  Verdicts that depend on the noise
# stream are recorded but not gated either: the battery's plain 3-sigma Monte
# Carlo check, and reproduce-fig2's single-path growth witness, which fails
# on about one noise seed in five; path-fig2 gates noise-driven statistics of
# the path instead.
UNGATED_CHECKS = ("monte_carlo_oracle_sigmas",)

# The exact oracle is checked against its stored mse to this relative
# tolerance.  Its own step error is far smaller: at t_end 20 the mse at
# dt 1e-2 and at dt 1e-3 differ by at most 2.3e-8 relative.
ORACLE_RTOL = 1e-6

# Battery values that are zero in exact arithmetic: what they measure is
# round-off or discretisation error, which a faithful change may move.  They
# are gated to within a tenth of their check's threshold.  Every other gated
# value is a deterministic function of the scenario and is gated to
# VALUE_RTOL relative.
ERROR_MEASURES = ("controller_identities_residual", "reduction_projection_gap",
                  "jordan_recursion_vs_ode", "filter_constant_drive_residual")
VALUE_RTOL = 1e-6

# path-fig2's path statistics (path_statistics) are gated to within
# PATH_BAND_SD standard deviations of their mean over PATH_REF_PATHS
# independent noise paths, stored in refs/path-fig2.json.  Over 60 other
# paths the statistics were close to normal (|skew| <= 0.3, excess kurtosis
# between -0.7 and 0.1) and stayed within 2.9 of the stored band centre; the
# two-sided Bonferroni t threshold for 6 statistics at a family-wise
# false-alarm probability of 1e-6, from a 60-path estimate, is 5.98.  Dropping
# or halving the noise, reusing one draw for a block of steps, sharing one
# draw across edges or dropping the coupling drift each moved a statistic by
# 13 or more.  Doubling or halving the coupling moved it by only 4 to 7.
PATH_REF_PATHS = 60
PATH_BAND_SD = 6.5


def noise_seed(workload: str, seed: int) -> int:
    """63-bit noise seed derived from the workload name and --seed."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def scenario_key(doc: dict) -> str:
    """Hash of a scenario document with its noise seed left out."""
    stripped = json.loads(json.dumps(doc))
    stripped.get("monte_carlo", {}).pop("base_seed", None)
    return hashlib.sha256(json.dumps(stripped, sort_keys=True).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Outcome:
    attempted: int
    failed: int
    notes: tuple[str, ...]                # names of the failed checks
    recorded: tuple[str, ...] = ()        # ungated verdicts, "name=pass|FAIL"


def _outcome(results: dict[str, bool], recorded: dict[str, bool] | None = None) -> Outcome:
    bad = tuple(name for name, ok in results.items() if not ok)
    return Outcome(attempted=len(results), failed=len(bad), notes=bad,
                   recorded=tuple(f"{k}={'pass' if v else 'FAIL'}"
                                  for k, v in (recorded or {}).items()))


# --------------------------------------------------------------------------
# mc-fig1: `leadfollow reproduce-fig1`


def _mc_sequence(lf, scen, out: Path):
    mc = lf.rates.monte_carlo_moments(scen)
    mc.to_csv(out / "moments_mc.csv")
    frac = lf.rates.envelope_check(mc, C=5.0, beta=scen.profile.beta, t_min=5.0)
    lines = [f"scenario: {scen.fingerprint}",
             f"envelope: 5 * t^(-{scen.profile.beta:g}), t >= 5",
             "threshold: violation fraction <= 0.2 per follower"]
    ok = True
    for fid, f in zip(mc.follower_ids, frac):
        ok = ok and f <= 0.2
        lines.append(f"follower_{fid}_violation_fraction: {f:.4f} "
                     f"status={'pass' if f <= 0.2 else 'FAIL'}")
    lines.append(f"overall: {'pass' if ok else 'FAIL'}")
    (out / "envelope_report.txt").write_text("\n".join(lines) + "\n")
    return {"mc": mc, "frac": frac}


def mc_threshold(compared: int) -> float:
    """Two-sided Bonferroni z threshold for ``compared`` samples."""
    return NormalDist().inv_cdf(1.0 - MC_FAMILY_ALPHA / (2 * compared))


def mc_max_z(lf, mc, ref: dict) -> float:
    """Largest |MC - oracle| mse gap in standard errors (inf where a gap has
    no sampling error behind it, or the grids differ)."""
    ref_mse = np.asarray(ref["mse"], dtype=float)
    if not np.array_equal(mc.times, np.asarray(ref["times"])) or mc.mse.shape != ref_mse.shape:
        return math.inf
    return lf.verify.oracle_deviation_sigmas(mc, SimpleNamespace(mse=ref_mse))


def _mc_check(lf, scen, out: Path, result, ref) -> Outcome:
    mc = result["mc"]
    z = mc_max_z(lf, mc, ref)
    back = lf.series.from_csv(out / "moments_mc.csv")
    frac = np.asarray(result["frac"])
    return _outcome({
        "mc_mse_matches_oracle": z <= mc_threshold(mc.mse.size),
        "moments_csv_roundtrip": bool(
            np.array_equal(back.times, mc.times) and np.array_equal(back.mse, mc.mse)
            and np.array_equal(back.mean_err, mc.mean_err)
            and np.array_equal(back.halfwidth, mc.halfwidth)),
        "envelope_fractions_valid": bool(
            frac.shape == (len(mc.follower_ids),) and np.all((frac >= 0) & (frac <= 1))),
    }, {"envelope": bool(np.all(frac <= 0.2))})


def _mc_digest(result) -> bytes:
    mc = result["mc"]
    return mc.mse.tobytes() + mc.mean_err.tobytes() + mc.halfwidth.tobytes()


# --------------------------------------------------------------------------
# path-fig2: `leadfollow reproduce-fig2`


def _path_sequence(lf, scen, out: Path):
    traj = lf.sde.simulate_full(scen, scen.base_seed)
    lf.sde.trajectory_to_csv(traj, out / "trajectory.csv")
    t = traj.times
    norms = np.linalg.norm(traj.states, axis=2)
    head = norms[(t >= 0) & (t <= 10.0)].mean(axis=0)
    tail = norms[t >= t.max() - 50.0].mean(axis=0)
    grew = tail > head
    pair_gap = 0.0
    tail_states = traj.states[t >= t.max() - 50.0]
    for i in range(norms.shape[1]):
        for j in range(i + 1, norms.shape[1]):
            gap = np.linalg.norm(tail_states[:, i] - tail_states[:, j], axis=1).mean()
            pair_gap = max(pair_gap, gap)
    lines = [f"scenario: {scen.fingerprint}"]
    for node in range(norms.shape[1]):
        lines.append(f"agent_{node}_norm_mean: head={head[node]:.6g} "
                     f"tail={tail[node]:.6g} grew={bool(grew[node])}")
    lines.append(f"max_pairwise_tail_gap_mean: {pair_gap:.6g}")
    lines.append(f"growth_witness: {'pass' if grew.any() else 'FAIL'}")
    (out / "growth_report.txt").write_text("\n".join(lines) + "\n")
    return {"traj": traj, "grew": grew}


def path_statistics(traj) -> np.ndarray:
    """Statistics of one path over its second half: for each agent, the log of
    the mean squared sample-to-sample increment (set by the noise), then the
    mean over agent pairs of the log mean pairwise distance (set by the noise
    against the coupling drift)."""
    states = traj.states[traj.times >= traj.times.max() / 2]
    increments = np.log((np.diff(states, axis=0) ** 2).sum(axis=2).mean(axis=0))
    i, j = np.triu_indices(states.shape[1], 1)
    gaps = np.log(np.linalg.norm(states[:, i] - states[:, j], axis=2).mean(axis=0))
    return np.append(increments, gaps.mean())


def path_band_z(traj, ref) -> np.ndarray:
    """Each path statistic's distance from the stored mean, in stored
    standard deviations."""
    return np.abs(path_statistics(traj) - np.asarray(ref["mean"])) / np.asarray(ref["sd"])


def _path_check(lf, scen, out: Path, result, ref) -> Outcome:
    traj = result["traj"]
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    S, nodes, n = traj.states.shape
    expect = np.column_stack([
        np.repeat(traj.times, nodes * n),
        np.tile(np.repeat(np.arange(nodes), n), S),
        np.tile(np.arange(n), S * nodes),
        traj.states.reshape(-1),
    ])
    finite = bool(np.all(np.isfinite(traj.states)))
    z = path_band_z(traj, ref) if finite else np.full(nodes + 1, np.inf)
    return _outcome({
        "path_finite": finite,
        "noise_increments_in_band": bool(np.all(z[:nodes] <= PATH_BAND_SD)),
        "pairwise_gap_in_band": bool(z[nodes] <= PATH_BAND_SD),
        "trajectory_csv_roundtrip": rows.shape == expect.shape and bool(np.array_equal(rows, expect)),
    }, {"growth_witness": bool(np.any(result["grew"]))})


# --------------------------------------------------------------------------
# battery-fig1: `leadfollow verify`


def _battery_sequence(lf, scen, out: Path):
    # run_battery computes these two itself when not given them; computing
    # them here, in the same order, keeps the work and lets the oracle be
    # checked on its own.
    mc = lf.rates.monte_carlo_moments(scen)
    oracle = lf.moments.evolve_moments(scen)
    report = lf.verify.run_battery(scen, mc=mc, oracle=oracle)
    (out / "verify_report.txt").write_text("\n".join(report.lines()) + "\n")
    return {"report": report, "oracle": oracle}


def oracle_matches(oracle, ref) -> bool:
    """The oracle mse equals the stored one to ORACLE_RTOL on the same grid."""
    ref_mse = np.asarray(ref["mse"], dtype=float)
    return (np.array_equal(oracle.times, np.asarray(ref["times"]))
            and oracle.mse.shape == ref_mse.shape
            and bool(np.all(np.abs(oracle.mse - ref_mse) <= ORACLE_RTOL * np.abs(ref_mse))))


def value_matches(name: str, value: float, ref) -> bool:
    """A battery value equals the stored one, within the tolerance of its kind."""
    stored = ref["values"][name]
    if name in ERROR_MEASURES:
        return abs(value - stored) <= 0.1 * abs(ref["thresholds"][name])
    return abs(value - stored) <= VALUE_RTOL * abs(stored)


def battery_checks(report, oracle, ref) -> dict[str, bool]:
    """The oracle matches its reference; each gated verdict and value equals
    the stored one; every value is finite."""
    got = {r.name: r for r in report.results}
    checks = {"oracle_mse_matches_reference": oracle_matches(oracle, ref)}
    for name, verdict in ref["verdicts"].items():
        if name in UNGATED_CHECKS:
            continue
        checks[f"{name}_verdict"] = name in got and got[name].passed == verdict
        checks[f"{name}_value"] = name in got and value_matches(name, got[name].value, ref)
    for name in ref["verdicts"]:
        checks[f"{name}_finite"] = name in got and math.isfinite(got[name].value)
    return checks


def _battery_check(lf, scen, out: Path, result, ref) -> Outcome:
    report = result["report"]
    return _outcome(battery_checks(report, result["oracle"], ref),
                    {r.name: r.passed for r in report.results if r.name in UNGATED_CHECKS})


def _battery_trial_steps(lf, scen) -> int:
    # The Monte Carlo run, plus the reduction check's full and reduced
    # single-trial paths over min(10, t_end) for each of its seeds.
    probe = round(min(10.0, scen.t_end) / scen.dt)
    return scen.trials * scen.steps + 2 * lf.verify.REDUCTION_SEEDS * probe


# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    t_end: float | None           # None keeps the preset's horizon and samples
    trials: int
    sequence: Callable            # (lf, scen, out_dir) -> result
    check: Callable               # (lf, scen, out_dir, result, ref) -> Outcome
    digest: Callable              # result -> bytes; equal on every pass of a run
    trial_steps: Callable         # (lf, scen) -> Euler-Maruyama trial-steps per pass

    def document(self, lf, seed: int) -> dict:
        doc = json.loads(lf.scenario.preset_path(self.preset).read_text())
        if self.t_end is not None:
            doc["integration"]["t_end"] = self.t_end
            doc["integration"]["sample_times"] = {
                "kind": "logspace", "start": 0.5, "stop": self.t_end, "count": 40}
        doc["monte_carlo"]["trials"] = self.trials
        doc["monte_carlo"]["base_seed"] = noise_seed(self.name, seed)
        return doc

    def reference(self) -> dict | None:
        """The stored reference its checks compare against, refs/<name>.json."""
        path = REFS / f"{self.name}.json"
        return json.loads(path.read_text()) if path.exists() else None


WORKLOADS = {w.name: w for w in [
    Workload("mc-fig1", "fig1", 10.0, 500, _mc_sequence, _mc_check, _mc_digest,
             lambda lf, scen: scen.trials * scen.steps),
    Workload("path-fig2", "fig2", None, 1, _path_sequence, _path_check,
             lambda result: result["traj"].states.tobytes(),
             lambda lf, scen: scen.steps),
    Workload("battery-fig1", "fig1", 20.0, 20, _battery_sequence, _battery_check,
             lambda result: np.array([r.value for r in result["report"].results]).tobytes(),
             _battery_trial_steps),
]}
