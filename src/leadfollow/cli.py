"""Command line front end: scenario runs, verification, figure reproductions.

Every subcommand resolves an output directory (``--out``, else the
LEADFOLLOW_OUT environment variable, else ``./runs``), writes its artifacts
there together with a ``manifest.json`` holding the resolved scenario document,
seed, dt and tool version, and reflects pass/fail in the exit status where a
check is involved.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .moments import evolve_moments
from .rates import MIN_TRIALS, envelope_check, monte_carlo_moments
from .scenario import ParseError, ValidationError, load_preset, load_scenario
from .sde import simulate_full, trajectory_to_csv
from .verify import oracle_deviation_sigmas, run_battery

OUT_ENV_VAR = "LEADFOLLOW_OUT"


def _resolve_scenario(config, preset, trials, seed, dt):
    try:
        scen = load_scenario(config) if config else load_preset(preset)
        if trials is not None or seed is not None or dt is not None:
            scen = scen.with_overrides(trials=trials, base_seed=seed, dt=dt)
    except ParseError as exc:
        raise click.ClickException(f"config parse failed: {exc}")
    except ValidationError as exc:
        lines = "\n  ".join(exc.failures)
        raise click.ClickException(f"config validation failed:\n  {lines}")
    return scen


def _require_trials(scen) -> None:
    if scen.trials < MIN_TRIALS:
        raise click.ClickException(
            f"scenario {scen.fingerprint}: Monte Carlo moments need --trials >= {MIN_TRIALS}, "
            f"got {scen.trials}"
        )


def _run_dir(out, subcommand: str, scen) -> Path:
    """Make the run's output directory and write its manifest there."""
    base = out or os.environ.get(OUT_ENV_VAR) or "runs"
    path = Path(base) / f"{subcommand}-{scen.fingerprint}"
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "subcommand": subcommand,
        "scenario_fingerprint": scen.fingerprint,
        "scenario": json.loads(scen.raw_json),
        "base_seed": scen.base_seed,
        "dt": scen.dt,
        "trials": scen.trials,
        "tool_version": __version__,
    }
    with open(path / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path


def _report(path: Path, lines, ok: bool) -> None:
    """Write the report ``lines`` to ``path``, echo them, and exit 0 iff ``ok``."""
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        click.echo(line)
    sys.exit(0 if ok else 1)


def _common(f):
    f = click.option("--config", type=click.Path(exists=True, dir_okay=False),
                     default=None, help="Scenario config file (JSON).")(f)
    f = click.option("--trials", type=int, default=None,
                     help="Override the Monte Carlo trial count.")(f)
    f = click.option("--seed", type=int, default=None,
                     help="Override the base noise seed.")(f)
    f = click.option("--dt", type=float, default=None,
                     help="Override the integration step.")(f)
    f = click.option("--out", type=click.Path(file_okay=False), default=None,
                     help=f"Output directory (default ${OUT_ENV_VAR} or ./runs).")(f)
    return f


@click.group()
@click.version_option(__version__)
def main():
    """Simulation and verification of noisy leader-following consensus."""


@main.command()
@_common
def simulate(config, trials, seed, dt, out):
    """Run one noisy trial and write the sampled trajectory as CSV."""
    scen = _resolve_scenario(config, "fig1", trials, seed, dt)
    run_dir = _run_dir(out, "simulate", scen)
    traj = simulate_full(scen, scen.base_seed)
    trajectory_to_csv(traj, run_dir / "trajectory.csv")
    click.echo(f"trajectory: {run_dir / 'trajectory.csv'}")


@main.command()
@_common
def moments(config, trials, seed, dt, out):
    """Write Monte Carlo and exact-oracle moment series as CSV."""
    scen = _resolve_scenario(config, "fig1", trials, seed, dt)
    if scen.leaderless:
        raise click.ClickException(
            f"scenario {scen.fingerprint}: moments require a leader-following scenario"
        )
    _require_trials(scen)
    run_dir = _run_dir(out, "moments", scen)
    mc = monte_carlo_moments(scen)
    oracle = evolve_moments(scen)
    mc.to_csv(run_dir / "moments_mc.csv")
    oracle.to_csv(run_dir / "moments_oracle.csv")
    dev = oracle_deviation_sigmas(mc, oracle)
    click.echo(f"max deviation: {dev:.3f} standard errors")
    click.echo(f"oracle step error: {oracle.step_error:.2e} (relative mse, Richardson)")
    click.echo(f"series: {run_dir}")


@main.command()
@_common
def verify(config, trials, seed, dt, out):
    """Run the full property battery; exit 0 only if every check passes."""
    scen = _resolve_scenario(config, "fig1", trials, seed, dt)
    if scen.leaderless:
        raise click.ClickException(
            f"scenario {scen.fingerprint}: verification requires a leader-following scenario"
        )
    _require_trials(scen)
    run_dir = _run_dir(out, "verify", scen)
    report = run_battery(scen)
    _report(run_dir / "verify_report.txt", report.lines(), report.all_passed)


@main.command(name="reproduce-fig1")
@_common
def reproduce_fig1(config, trials, seed, dt, out):
    """Trial-averaged error moments of the bundled leader-following scenario,
    checked against the decaying envelope; exit 0 iff the violation fraction
    stays within the threshold for every follower."""
    scen = _resolve_scenario(config, "fig1", trials, seed, dt)
    _require_trials(scen)
    run_dir = _run_dir(out, "reproduce-fig1", scen)
    mc = monte_carlo_moments(scen)
    mc.to_csv(run_dir / "moments_mc.csv")
    frac = envelope_check(mc, C=5.0, beta=scen.profile.beta, t_min=5.0)
    lines = [f"scenario: {scen.fingerprint}",
             f"envelope: 5 * t^(-{scen.profile.beta:g}), t >= 5",
             "threshold: violation fraction <= 0.2 per follower"]
    ok = True
    for fid, f in zip(mc.follower_ids, frac):
        status = "pass" if f <= 0.2 else "FAIL"
        ok = ok and f <= 0.2
        lines.append(f"follower_{fid}_violation_fraction: {f:.4f} status={status}")
    lines.append(f"overall: {'pass' if ok else 'FAIL'}")
    _report(run_dir / "envelope_report.txt", lines, ok)


@main.command(name="reproduce-fig2")
@_common
def reproduce_fig2(config, trials, seed, dt, out):
    """State-norm growth report for the leaderless counterexample; exit 0 iff
    some agent's tail-mean norm exceeds its head-mean norm."""
    scen = _resolve_scenario(config, "fig2", trials, seed, dt)
    run_dir = _run_dir(out, "reproduce-fig2", scen)
    traj = simulate_full(scen, scen.base_seed)
    trajectory_to_csv(traj, run_dir / "trajectory.csv")
    t = traj.times
    norms = np.linalg.norm(traj.states, axis=2)
    head = norms[(t >= 0) & (t <= 10.0)].mean(axis=0)
    tail = norms[t >= t.max() - 50.0].mean(axis=0)
    grew = tail > head
    # Pairwise gaps can stay bounded even while every individual norm grows.
    tail_states = traj.states[t >= t.max() - 50.0]
    i, j = np.triu_indices(norms.shape[1], k=1)
    gaps = np.linalg.norm(tail_states[:, i] - tail_states[:, j], axis=2).mean(axis=0)
    pair_gap = gaps.max(initial=0.0)
    lines = [f"scenario: {scen.fingerprint}"]
    for node in range(norms.shape[1]):
        lines.append(
            f"agent_{node}_norm_mean: head={head[node]:.6g} tail={tail[node]:.6g} "
            f"grew={bool(grew[node])}"
        )
    lines.append(f"max_pairwise_tail_gap_mean: {pair_gap:.6g}")
    lines.append(
        "note: bounded pairwise differences may coexist with unbounded norms"
    )
    ok = bool(grew.any())
    lines.append(f"growth_witness: {'pass' if ok else 'FAIL'}")
    _report(run_dir / "growth_report.txt", lines, ok)


if __name__ == "__main__":
    main()
