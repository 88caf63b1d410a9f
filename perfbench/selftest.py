"""Tests of the benchmark itself (not of leadfollow).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's own test run; it takes about two
minutes, most of it one untraced and one traced run of every workload.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import run
import tracing
import workloads

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

lf = run._import_package()


def _bench(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def results():
    out = {}
    for wl in SPEC["workloads"]:
        for trace in (0, 1):
            proc = _bench(wl["name"], trace)
            assert proc.returncode == 0, proc.stderr
            out[wl["name"], trace] = json.loads(proc.stdout.splitlines()[-1])
    return out


def test_metric_names_match_pattern():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_emits_every_metric(results, trace, section):
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    for wl in SPEC["workloads"]:
        res = results[wl["name"], trace]
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        assert got == units, wl["name"]
        assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


def test_self_times_sum_to_traced_wall(results):
    for wl in SPEC["workloads"]:
        m = {k: v["value"] for k, v in results[wl["name"], 1]["metrics"].items()}
        self_sum = sum(m[f"{layer}.s"] for layer in run.LAYERS)
        assert abs(self_sum - m["trace.wall_s"]) <= abs(m["trace.overhead_s"]), wl["name"]


def test_trial_step_count_matches_trace(results):
    for wl in SPEC["workloads"]:
        e2e = results[wl["name"], 0]["metrics"]
        steps = e2e["trial_steps_per_s"]["value"] * e2e["wall_s"]["value"]
        traced = results[wl["name"], 1]["metrics"]["sde.trial_steps"]["value"]
        assert steps == pytest.approx(traced, rel=1e-9), wl["name"]


def test_perturbed_mc_reference_fails(tmp_path):
    wl = workloads.WORKLOADS["mc-fig1"]
    ref = wl.reference()
    scen = lf.scenario.scenario_from_dict(wl.document(lf, 5))
    result = wl.sequence(lf, scen, tmp_path)
    assert wl.check(lf, scen, tmp_path, result, ref).failed == 0
    scaled = dict(ref, mse=(1.2 * np.asarray(ref["mse"])).tolist())
    outcome = wl.check(lf, scen, tmp_path, result, scaled)
    assert outcome.failed > 0 and outcome.failed / outcome.attempted > 0
    assert "mc_mse_matches_oracle" in outcome.notes
    # Every trial on one path: no sampling error, so any gap fails the check.
    collapsed = dict(result, mc=dataclasses.replace(
        result["mc"], halfwidth=np.zeros_like(result["mc"].halfwidth)))
    assert "mc_mse_matches_oracle" in wl.check(lf, scen, tmp_path, collapsed, ref).notes


def test_perturbed_path_reference_fails(tmp_path):
    wl = workloads.WORKLOADS["path-fig2"]
    ref = wl.reference()
    doc = wl.document(lf, 5)
    scen = lf.scenario.scenario_from_dict(doc)
    result = wl.sequence(lf, scen, tmp_path)
    assert wl.check(lf, scen, tmp_path, result, ref).failed == 0
    shifted = np.asarray(ref["mean"]) + 20 * np.asarray(ref["sd"]) * (np.arange(6) == 5)
    outcome = wl.check(lf, scen, tmp_path, result, dict(ref, mean=shifted.tolist()))
    assert outcome.notes == ("pairwise_gap_in_band",)
    # The same scenario without noise: a correct program, but the path the
    # benchmark would see if the noise were dropped.
    doc["noise"]["rho"] = 0.0
    quiet = lf.scenario.scenario_from_dict(doc)
    result = wl.sequence(lf, quiet, tmp_path)
    outcome = wl.check(lf, quiet, tmp_path, result, ref)
    assert "noise_increments_in_band" in outcome.notes


def test_perturbed_battery_reference_fails():
    ref = workloads.WORKLOADS["battery-fig1"].reference()
    report = lf.verify.VerifyReport("ref", tuple(
        lf.verify.CheckResult(name=k, value=ref["values"][k], threshold=0.0, op="<=",
                              passed=v) for k, v in ref["verdicts"].items()))
    oracle = SimpleNamespace(times=np.asarray(ref["times"]), mse=np.asarray(ref["mse"]))

    def fails(**changes):
        perturbed = dict(ref, **changes)
        return not all(workloads.battery_checks(report, oracle, perturbed).values())

    assert not fails()
    assert fails(verdicts=dict(ref["verdicts"], reduction_projection_gap=False))
    assert fails(mse=(np.asarray(ref["mse"]) * (1 + 1e-5)).tolist())
    slope = ref["values"]["oracle_slope_deviation"]
    assert fails(values=dict(ref["values"], oracle_slope_deviation=slope * (1 + 1e-5)))
    jordan = ref["thresholds"]["jordan_recursion_vs_ode"]
    assert fails(values=dict(ref["values"], jordan_recursion_vs_ode=0.2 * jordan))
    # The noise-dependent Monte Carlo verdict and value are recorded, never gated.
    assert not fails(verdicts=dict(ref["verdicts"], monte_carlo_oracle_sigmas=True),
                     values=dict(ref["values"], monte_carlo_oracle_sigmas=0.0))


def test_same_seed_same_inputs():
    for wl in workloads.WORKLOADS.values():
        a, b, c = wl.document(lf, 3), wl.document(lf, 3), wl.document(lf, 4)
        assert a == b
        assert a["monte_carlo"]["base_seed"] != c["monte_carlo"]["base_seed"]
        assert workloads.scenario_key(a) == workloads.scenario_key(c)


def test_rng_word_counter_is_exact():
    tracer = tracing.Tracer()
    with tracing.instrumented(lf, tracer):
        for k, draws in enumerate((0, 3, 5, 4, 1001)):
            np.random.Philox(key=np.uint64(k)).random_raw(draws)
    assert tracer.rng_words() == 1013
    assert np.random.Philox is tracer.philox[0].__class__.__mro__[1]


def test_tracing_leaves_outputs_bit_identical():
    scen = lf.load_preset("fig1").with_overrides(t_end=1.0, trials=4, sample_times=[0.5, 1.0])
    original = lf.rates.monte_carlo_moments
    plain = lf.monte_carlo_moments(scen)
    tracer = tracing.Tracer()
    with tracing.instrumented(lf, tracer):
        traced = lf.monte_carlo_moments(scen)
    assert np.array_equal(plain.mse, traced.mse)
    assert tracer.counts["sde.trial_steps"] == 4 * scen.steps
    assert lf.rates.monte_carlo_moments is original and lf.monte_carlo_moments is original


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("mc-fig1", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
