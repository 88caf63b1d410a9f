import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from leadfollow import __version__
from leadfollow.cli import main
from leadfollow.scenario import preset_path
from leadfollow.series import from_csv


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def small_config(tmp_path):
    raw = json.loads(preset_path("fig1").read_text())
    raw["integration"] = {
        "dt": 0.001, "t_end": 10.0,
        "sample_times": {"kind": "linspace", "start": 0.0, "stop": 10.0, "count": 21},
    }
    raw["monte_carlo"] = {"trials": 30, "base_seed": 11}
    path = tmp_path / "small.json"
    path.write_text(json.dumps(raw))
    return str(path)


def _single_run_dir(base):
    dirs = [p for p in base.iterdir() if p.is_dir()]
    assert len(dirs) == 1
    return dirs[0]


def test_simulate_writes_trajectory_and_manifest(runner, small_config, tmp_path):
    out = tmp_path / "out"
    res = runner.invoke(main, ["simulate", "--config", small_config, "--out", str(out)])
    assert res.exit_code == 0, res.output
    run_dir = _single_run_dir(out)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["tool_version"] == __version__
    assert manifest["dt"] == 0.001
    assert manifest["scenario_fingerprint"] == run_dir.name.split("-")[-1]
    lines = (run_dir / "trajectory.csv").read_text().strip().split("\n")
    assert lines[0] == "t,node,component,value"
    assert len(lines) == 1 + 21 * 5 * 4


def test_moments_writes_both_series(runner, small_config, tmp_path):
    out = tmp_path / "out"
    res = runner.invoke(main, ["moments", "--config", small_config, "--out", str(out)])
    assert res.exit_code == 0, res.output
    run_dir = _single_run_dir(out)
    mc = from_csv(run_dir / "moments_mc.csv")
    oracle = from_csv(run_dir / "moments_oracle.csv")
    assert mc.provenance == "monte_carlo"
    assert oracle.provenance == "oracle"
    assert np.array_equal(mc.times, oracle.times)


def test_output_dir_from_environment(runner, small_config, tmp_path, monkeypatch):
    monkeypatch.setenv("LEADFOLLOW_OUT", str(tmp_path / "envout"))
    res = runner.invoke(main, ["simulate", "--config", small_config])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "envout").is_dir()


def test_override_flags_enter_manifest(runner, small_config, tmp_path):
    out = tmp_path / "out"
    res = runner.invoke(main, [
        "simulate", "--config", small_config, "--trials", "7", "--seed", "123",
        "--out", str(out),
    ])
    assert res.exit_code == 0, res.output
    manifest = json.loads((_single_run_dir(out) / "manifest.json").read_text())
    assert manifest["trials"] == 7
    assert manifest["base_seed"] == 123


def test_invalid_config_rejected(runner, tmp_path):
    bad = tmp_path / "bad.json"
    raw = json.loads(preset_path("fig1").read_text())
    raw["gains"]["beta"] = 1.5
    bad.write_text(json.dumps(raw))
    res = runner.invoke(main, ["simulate", "--config", str(bad)])
    assert res.exit_code != 0
    assert "validation failed" in res.output


def test_malformed_field_listed_without_traceback(runner, tmp_path):
    """A wrong-typed field outside integration is listed as a validation
    failure, not raised as a bare exception."""
    bad = tmp_path / "bad.json"
    raw = json.loads(preset_path("fig1").read_text())
    raw["monte_carlo"]["trials"] = "abc"
    bad.write_text(json.dumps(raw))
    res = runner.invoke(main, ["verify", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "config validation failed:" in res.output
    assert "monte_carlo: " in res.output
    assert "Traceback" not in res.output


def test_huge_trial_count_rejected(runner, small_config, tmp_path):
    """A trial count above the scenario bound fails validation before any
    noise generator is built or any file is written."""
    out = tmp_path / "out"
    res = runner.invoke(main, ["moments", "--config", small_config,
                               "--trials", "1000000000000", "--out", str(out)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "config validation failed:" in res.output
    assert "monte_carlo: trials must lie in [1, 1000000]" in res.output
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["moments", "reproduce-fig1", "verify"])
def test_single_trial_rejected(runner, small_config, tmp_path, subcommand):
    """The Monte Carlo subcommands name the minimum trial count instead of
    ending in a traceback, and write nothing."""
    out = tmp_path / "out"
    res = runner.invoke(main, [subcommand, "--config", small_config, "--trials", "1",
                               "--out", str(out)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "--trials >= 2" in res.output
    assert not out.exists()


def test_verify_passes_on_bundled_scenario(runner, tmp_path):
    """Reduced-trial run of the full battery on the bundled scenario: every
    check passes, the report lists one value/threshold line per check, and the
    finite-horizon surrogates carry their label."""
    out = tmp_path / "out"
    res = runner.invoke(main, ["verify", "--trials", "150", "--out", str(out)])
    assert res.exit_code == 0, res.output
    report = (_single_run_dir(out) / "verify_report.txt").read_text()
    assert "overall: pass" in report
    assert report.count("status=pass") == 12
    assert report.count("finite-horizon-surrogate") == 7
    for needle in ("follower_spectrum_min_real", "monte_carlo_oracle_sigmas",
                   "reduction_projection_gap", "jordan_recursion_vs_ode"):
        assert needle in report


def test_verify_rejects_leaderless(runner, tmp_path):
    raw = json.loads(preset_path("fig2").read_text())
    cfg = tmp_path / "fig2.json"
    cfg.write_text(json.dumps(raw))
    res = runner.invoke(main, ["verify", "--config", str(cfg)])
    assert res.exit_code != 0
    assert "leader-following" in res.output


def test_reproduce_fig2(runner, tmp_path):
    """The growth witness is a single-path diagnostic that fails on about one
    noise seed in five, so its exit status is not asserted; it must agree with
    the report, and the report's norm means with the written trajectory."""
    out = tmp_path / "out"
    res = runner.invoke(main, ["reproduce-fig2", "--out", str(out)])
    run_dir = _single_run_dir(out)
    report = (run_dir / "growth_report.txt").read_text()
    assert "bounded pairwise differences" in report
    assert ("growth_witness: pass" in report) == (res.exit_code == 0)

    rows = np.loadtxt(run_dir / "trajectory.csv", delimiter=",", skiprows=1)
    t = np.unique(rows[:, 0])
    nodes, n = int(rows[:, 1].max()) + 1, int(rows[:, 2].max()) + 1
    norms = np.linalg.norm(rows[:, 3].reshape(t.size, nodes, n), axis=2)
    head = norms[(t >= 0) & (t <= 10.0)].mean(axis=0)
    tail = norms[t >= t.max() - 50.0].mean(axis=0)
    pattern = r"agent_(\d+)_norm_mean: head=(\S+) tail=(\S+) grew=(\w+)"
    reported = re.findall(pattern, report)
    assert [int(r[0]) for r in reported] == list(range(nodes))
    assert np.allclose([float(r[1]) for r in reported], head, rtol=1e-5, atol=0.0)
    assert np.allclose([float(r[2]) for r in reported], tail, rtol=1e-5, atol=0.0)
    assert [r[3] == "True" for r in reported] == list(tail > head)


def test_reproduce_fig1_report_consistency(runner, small_config, tmp_path):
    """The envelope report and the exit status must agree; the artifacts are
    written either way."""
    out = tmp_path / "out"
    res = runner.invoke(main, ["reproduce-fig1", "--config", small_config,
                               "--out", str(out)])
    run_dir = _single_run_dir(out)
    report = (run_dir / "envelope_report.txt").read_text()
    assert (run_dir / "moments_mc.csv").is_file()
    assert ("overall: pass" in report) == (res.exit_code == 0)
    assert report.count("violation_fraction") == 4
