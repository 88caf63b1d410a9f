import copy
import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import leadfollow as lf
from leadfollow.matrices import MAX_DIM
from leadfollow.scenario import (
    ParseError, ValidationError, preset_path, scenario_from_dict,
)
from leadfollow.series import from_csv


def test_fig1_preset(fig1):
    assert fig1.graph.node_count == 5
    assert not fig1.leaderless
    assert fig1.profile.beta == 0.4
    assert fig1.sim_nodes == [1, 2, 3, 4]
    # rho 1 on every edge: q_i = |K2|^2 sum_j w_ij^2 with |K2|^2 = 1 + 9 + 9 + 1
    assert fig1.noise_rate.tolist() == [0.0, 20.0, 40.0, 80.0, 40.0]
    assert fig1.trials == 500
    assert fig1.dt == 1e-3
    assert fig1.t_end == 100.0
    assert len(fig1.fingerprint) == 16


def test_fig2_preset(fig2):
    assert fig2.leaderless
    assert (0, 4) in fig2.graph.edges()
    # uniform gains 1/(1+t)^0.4 on every node
    assert fig2.sim_nodes == [0, 1, 2, 3, 4]
    assert np.all(fig2.profile.mu == 1.0)
    assert np.all(fig2.profile.scale == 1.0)
    assert np.all(fig2.profile.shift == 1.0)
    assert fig2.profile.gain_all(0.0) == pytest.approx(np.ones(5))
    assert fig2.profile.gain_all(3.0) == pytest.approx(np.full(5, 4.0 ** -0.4))


def test_bad_exponent_reported(fig1):
    raw = json.loads(fig1.raw_json)
    raw["gains"]["beta"] = 1.5
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict(raw)
    assert any("gains" in f and "0, 1" in f for f in exc.value.failures)


def test_validation_aggregates_failures(fig1):
    raw = json.loads(fig1.raw_json)
    raw["graph"]["weights"][1][1] = 1.0        # self loop
    raw["gains"]["beta"] = 1.5                 # bad exponent
    raw["integration"]["dt"] = -1.0            # bad step
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict(raw)
    assert len(exc.value.failures) >= 3


def test_unknown_keys_listed_by_section(fig1):
    """A misspelt key is never dropped: each unknown key, at the top level,
    in a section, in a noise edge entry or in a sample-times spec, is a
    failure of its own section, listed once."""
    raw = json.loads(fig1.raw_json)
    raw["noise"] = {"rho": 1.0, "edge": [{"to": 1, "from": 0, "rho": 1.0}]}
    raw["monte_carlo"]["trails"] = 3
    raw["integration"]["sample_time"] = [1.0]
    raw["integration"]["sample_times"]["cont"] = 3
    raw["graph"]["leeder"] = 0
    raw["extra"] = {"trials": 1}
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict(raw)
    assert sorted(exc.value.failures) == [
        "extra: unknown section",
        "graph: unknown key graph.leeder",
        "integration: unknown key integration.sample_time",
        "integration: unknown key integration.sample_times.cont",
        "monte_carlo: unknown key monte_carlo.trails",
        "noise: unknown key noise.edge",
    ]
    raw = json.loads(fig1.raw_json)
    raw["noise"] = {"edges": [{"to": i, "from": j, "rho": 1.0, "rh": 0.0}
                              for i, j in fig1.graph.edges()]}
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict(raw)
    assert exc.value.failures == ["noise: unknown key noise.edges.rh"]


NAN, INF = float("nan"), float("inf")


def _set(raw, path, value):
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@pytest.mark.parametrize("path, value, field", [
    (("init", "states", 2, 0), NAN, "init.states"),
    (("graph", "weights", 1, 0), INF, "graph.weights"),
    (("integration", "dt"), NAN, "integration.dt"),
    (("integration", "t_end"), INF, "integration.t_end"),
    (("gains", "agents", 2, 0), INF, "gains.agents"),
    (("plant", "alpha", 1), NAN, "plant.alpha"),
])
def test_non_finite_field_rejected(fig1, path, value, field):
    raw = json.loads(fig1.raw_json)
    _set(raw, path, value)
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict(raw)
    assert exc.value.failures == [f"{path[0]}: non-finite value in {field}"]


def test_non_finite_fields_all_listed(fig1):
    """One failure per field, however many entries are bad; a section with a
    non-finite field is not built, so its range checks add nothing."""
    raw = json.loads(fig1.raw_json)
    _set(raw, ("init", "states", 2, 0), NAN)
    _set(raw, ("init", "states", 3, 1), -INF)
    _set(raw, ("gains", "beta"), NAN)
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict(raw)
    assert exc.value.failures == ["gains: non-finite value in gains.beta",
                                  "init: non-finite value in init.states"]


def test_null_array_element_is_non_finite(fig1):
    """numpy reads a null array element as NaN, so the scan reports it like one;
    a null dict value keeps its meaning (sample_times: null is the default grid)."""
    raw = json.loads(fig1.raw_json)
    _set(raw, ("graph", "weights", 1, 2), None)
    _set(raw, ("init", "states", 2, 0), None)
    _set(raw, ("integration", "sample_times"), None)
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict(raw)
    assert exc.value.failures == ["graph: non-finite value in graph.weights",
                                  "init: non-finite value in init.states"]
    raw["graph"] = json.loads(fig1.raw_json)["graph"]
    raw["init"] = json.loads(fig1.raw_json)["init"]
    assert scenario_from_dict(raw).sample_times.size == 101


@pytest.mark.parametrize("path, value, failure", [
    (("monte_carlo", "trials"), "abc", "monte_carlo: "),
    (("monte_carlo", "base_seed"), -1, "monte_carlo: base_seed must lie in [0, 2**64)"),
    (("monte_carlo", "base_seed"), 2 ** 64, "monte_carlo: base_seed must lie in [0, 2**64)"),
    (("graph", "leader"), "x", "graph: "),
    (("graph",), {"leader": 0}, "graph: missing 'weights'"),
    (("gains", "beta"), "x", "gains: "),
    (("gains", "agents"), True, "gains: expected per-agent (mu, scale, shift) triples"),
    (("plant", "alpha"), "x", "plant: "),
    (("init", "states"), "x", "init: "),
    (("noise",), [], "noise: "),
    (("monte_carlo", "trials"), 2.9, "monte_carlo: trials must be an integer, got 2.9"),
    (("monte_carlo", "trials"), True, "monte_carlo: trials must be an integer, got True"),
    (("monte_carlo", "base_seed"), 7.5, "monte_carlo: base_seed must be an integer, got 7.5"),
    (("monte_carlo", "base_seed"), False,
     "monte_carlo: base_seed must be an integer, got False"),
    (("graph", "leader"), 0.7, "graph: leader must be an integer, got 0.7"),
    (("graph", "leader"), False, "graph: leader must be an integer, got False"),
    (("noise",), {"edges": [{"to": 1.6, "from": 0, "rho": 1.0}]},
     "noise: edge 'to' must be an integer, got 1.6"),
    (("noise",), {"edges": [{"to": 1, "from": 0.2, "rho": 1.0}]},
     "noise: edge 'from' must be an integer, got 0.2"),
    (("noise",), {"edges": [{"to": True, "from": 0, "rho": 1.0}]},
     "noise: edge 'to' must be an integer, got True"),
    (("integration", "sample_times"), {"kind": "linspace", "start": 0.0, "stop": 100.0,
                                       "count": 40.5},
     "integration: sample_times count must be an integer, got 40.5"),
    (("monte_carlo", "trials"), 1e12,
     "monte_carlo: trials must lie in [1, 1000000], got 1000000000000.0"),
    (("monte_carlo", "trials"), 1e300,
     "monte_carlo: trials must lie in [1, 1000000], got 1e+300"),
    (("monte_carlo", "trials"), 10 ** 6 + 1,
     "monte_carlo: trials must lie in [1, 1000000], got 1000001"),
    (("integration", "dt"), 1e-6,
     "integration: t_end / dt = 1e+08 steps exceed the supported maximum 10000000"),
    (("integration", "dt"), 1e-9,
     "integration: t_end / dt = 1e+11 steps exceed the supported maximum 10000000"),
    (("integration", "t_end"), 1e300,
     "integration: t_end / dt = 1e+303 steps exceed the supported maximum 10000000"),
    (("integration", "dt"), 1e-320,
     "integration: t_end / dt = inf steps exceed the supported maximum 10000000"),
    (("integration", "sample_times"), {"kind": "linspace", "start": 0.0, "stop": 100.0,
                                       "count": 10 ** 12},
     "integration: sample_times count 1000000000000 exceeds MAX_STEPS + 1 = 10000001"),
    (("integration", "sample_times"), {"kind": "logspace", "start": 0.5, "stop": 100.0,
                                       "count": 10 ** 7 + 2},
     "integration: sample_times count 10000002 exceeds MAX_STEPS + 1 = 10000001"),
    # Noise sections that would drop part of themselves: a second entry for
    # one edge, or one intensity for every edge next to per-edge entries.
    (("noise",), {"edges": [{"to": 1, "from": 0, "rho": 1.0}, {"to": 1, "from": 0, "rho": 5.0}]},
     "noise: second entry for edge (1, 0)"),
    (("noise",), {"rho": 1.0, "edges": [{"to": 1, "from": 0, "rho": 5.0}]},
     "noise: give either 'rho' or 'edges', not both"),
])
def test_malformed_field_listed(fig1, path, value, failure):
    """A wrong-typed, missing or out-of-range field is one failure of its own
    section, not a bare exception."""
    raw = json.loads(fig1.raw_json)
    _set(raw, path, value)
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict(raw)
    assert len(exc.value.failures) == 1
    assert exc.value.failures[0].startswith(failure)


def test_malformed_leaderless_flag_listed_alone(fig2):
    """A non-boolean leaderless flag is the one failure: the graph, which
    needs the flag, is not built as leader-following in its place."""
    raw = json.loads(fig2.raw_json)
    raw["leaderless"] = "yes"
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict(raw)
    assert exc.value.failures == ["leaderless: expected true or false, got 'yes'"]


def test_integral_floats_accepted(fig1):
    """A JSON float with no fractional part is the integer it spells."""
    raw = json.loads(fig1.raw_json)
    raw["monte_carlo"] = {"trials": 7.0, "base_seed": 3.0}
    raw["graph"]["leader"] = 0.0
    raw["noise"] = {"edges": [{"to": 1.0, "from": 0.0, "rho": 1.0}]}
    scen = scenario_from_dict(raw)
    assert (scen.trials, scen.base_seed, scen.graph.leader_index) == (7, 3, 0)
    assert scen.noise_rate.tolist() == [0.0, 20.0, 0.0, 0.0, 0.0]


def test_non_object_document_is_parse_error(tmp_path):
    doc = tmp_path / "list.json"
    doc.write_text("[1, 2]")
    with pytest.raises(ParseError, match="JSON object"):
        lf.load_scenario(str(doc))


SECTIONS = ("graph", "plant", "gains", "noise", "init", "integration", "monte_carlo",
            "leaderless")
MUTANTS = (None, True, "x", -1, 0, 2, 100, [], {}, [1, 2], [[1]], 0.5)


def _value_paths(node, path=()):
    """Key paths of every dict value and list element, at any depth."""
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield path + (key,)
            yield from _value_paths(value, path + (key,))


@pytest.mark.parametrize("preset", ["fig1", "fig2"])
def test_single_value_mutations_are_listed(preset):
    """Any one value of a preset, at any depth, replaced by a small JSON value:
    the scenario validates, or a ValidationError lists failures that each start
    with their section, never another exception.  A non-boolean leaderless
    flag is always one of the failures."""
    base = json.loads(preset_path(preset).read_text())
    paths = list(_value_paths(base))
    rng = random.Random(20261018)
    mutations = [(rng.choice(paths), rng.choice(MUTANTS)) for _ in range(750)]
    mutations += [(("leaderless",), value) for value in MUTANTS + ("false",)]
    for path, value in mutations:
        raw = copy.deepcopy(base)
        _set(raw, path, copy.deepcopy(value))
        try:
            scenario_from_dict(raw)
            failures = []
        except ValidationError as exc:
            failures = exc.failures
        except Exception as exc:
            pytest.fail(f"{path} = {value!r}: {exc!r}")
        sections = [f.split(":")[0] for f in failures]
        assert set(sections) <= set(SECTIONS), (path, value, failures)
        if path == ("leaderless",) and not isinstance(value, bool):
            assert "leaderless" in sections, (value, failures)


def test_too_many_followers_rejected(fig1):
    """A chain of MAX_DIM + 6 followers fails validation up front, not in the
    rate checks after the Monte Carlo has run."""
    nodes = MAX_DIM + 7
    weights = np.zeros((nodes, nodes))
    weights[np.arange(1, nodes), np.arange(nodes - 1)] = 1.0
    raw = json.loads(fig1.raw_json)
    raw["graph"]["weights"] = weights.tolist()
    raw["gains"]["agents"] = [[1.0, 1.0, 1.0]] * nodes
    raw["init"]["states"] = [[0.0, 0.0, 0.0, 0.0]] * nodes
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict(raw)
    assert exc.value.failures == [
        f"graph: {nodes - 1} followers exceed the supported maximum {MAX_DIM}"]


def test_missing_spanning_tree_needs_flag(fig1):
    raw = json.loads(fig1.raw_json)
    raw["graph"]["weights"] = np.zeros((5, 5)).tolist()
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict(raw)
    assert any("spanning tree" in f for f in exc.value.failures)
    raw["leaderless"] = True
    assert scenario_from_dict(raw).leaderless


def test_unstable_dt_rejected(fig1):
    raw = json.loads(fig1.raw_json)
    raw["integration"]["dt"] = 0.5
    raw["integration"]["sample_times"] = [0.0, 100.0]
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict(raw)
    assert any("stability" in f for f in exc.value.failures)


def test_parse_error_reports_location(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"graph": [,]}')
    with pytest.raises(ParseError) as exc:
        lf.load_scenario(str(bad))
    assert "line 1" in str(exc.value)


def test_per_edge_noise_entries(fig1):
    raw = json.loads(fig1.raw_json)
    raw["noise"] = {"edges": [{"to": 1, "from": 0, "rho": [1.0, 0.5, 0.5, 0.0]}]}
    scen = scenario_from_dict(raw)
    # K2 = [1, 3, 3, 1]: 1 + 0.25 * 9 + 0.25 * 9 + 0
    assert scen.noise_rate.tolist() == [0.0, 5.5, 0.0, 0.0, 0.0]
    assert not scen.noise_rate.flags.writeable

    raw["noise"] = {"edges": [{"to": 0, "from": 3, "rho": 1.0}]}
    with pytest.raises(ValidationError):
        scenario_from_dict(raw)


def test_sample_time_resolution(fig1):
    raw = json.loads(fig1.raw_json)
    raw["integration"]["sample_times"] = {"kind": "linspace", "start": 0.0,
                                          "stop": 100.0, "count": 11}
    scen = scenario_from_dict(raw)
    assert np.allclose(scen.sample_times, np.linspace(0.0, 100.0, 11))

    raw["integration"]["sample_times"] = [0.0, 1.00049, 1.00051, 50.0]
    scen = scenario_from_dict(raw)
    # snapped to the dt grid and deduplicated
    assert np.allclose(scen.sample_times, [0.0, 1.0, 1.001, 50.0])


def test_loading_presets_does_not_import_numpy_ma():
    """Sample times are deduplicated without np.unique, whose numpy.ma import
    costs a fresh interpreter about 15 ms of set-up."""
    code = ("import sys, leadfollow; "
            "[leadfollow.load_scenario(leadfollow.scenario.preset_path(p)) for p in ('fig1', 'fig2')]; "
            "print('numpy.ma' in sys.modules)")
    path = [str(Path(lf.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("spec", [
    [],
    "abc",
    {"kind": "linspace", "start": 0.0, "stop": 10.0, "count": 0},
    {"kind": "linspace", "start": 0.0, "stop": 10.0, "count": -3},
    {"kind": "linspace", "start": 0.0, "stop": 10.0, "count": "abc"},
    {"kind": "logspace", "start": 0.0, "stop": 10.0, "count": 2},
    {"kind": "logspace", "start": -1.0, "stop": 10.0, "count": 5},
], ids=["empty", "string", "count-0", "count-negative", "count-string",
        "logspace-start-0", "logspace-start-negative"])
def test_malformed_sample_times_rejected(fig1, spec):
    """Each malformed sample-time spec is one aggregated integration failure,
    not an IndexError, a bare ValueError or NaN sample times."""
    raw = json.loads(fig1.raw_json)
    raw["integration"]["sample_times"] = spec
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict(raw)
    assert len(exc.value.failures) == 1
    assert exc.value.failures[0].startswith("integration: ")


def test_last_sample_on_engine_grid(fig1):
    """t_end = 5 is not a whole number of dt = 0.003 steps: the engines step
    to steps * dt = 5.001, and the scenario's last sample time is that time."""
    scen = fig1.with_overrides(dt=0.003, t_end=5.0, sample_times=[0.0, 2.5, 5.0])
    assert scen.steps * scen.dt == pytest.approx(5.001)
    assert scen.sample_times[-1] == scen.steps * scen.dt
    assert np.array_equal(lf.simulate_full(scen, 1).times, scen.sample_times)
    assert np.array_equal(lf.evolve_moments(scen).times, scen.sample_times)


def test_horizon_override_moves_grid_spec(fig1):
    """A sample-time spec that ends at the horizon follows a new t_end; an
    explicit list is still validated against it."""
    short = fig1.with_overrides(t_end=10.0)
    assert short.sample_times.size == 40
    assert short.sample_times[-1] == 10.0
    assert np.allclose(short.sample_times, np.round(np.logspace(np.log10(0.5), 1.0, 40), 3))
    listed = fig1.with_overrides(sample_times=[0.0, 50.0, 100.0])
    with pytest.raises(ValidationError, match="sample_times outside"):
        listed.with_overrides(t_end=10.0)


def test_fingerprint_stability(fig1):
    again = lf.load_preset("fig1")
    assert again.fingerprint == fig1.fingerprint
    changed = fig1.with_overrides(base_seed=fig1.base_seed + 1)
    assert changed.fingerprint != fig1.fingerprint
    assert changed.base_seed == fig1.base_seed + 1


def test_overrides_without_monte_carlo_section(fig1):
    """monte_carlo may be left out (2 trials, seed 0); overriding the trials
    or the seed of such a scenario starts from those defaults."""
    raw = json.loads(fig1.raw_json)
    del raw["monte_carlo"]
    scen = scenario_from_dict(raw)
    assert (scen.trials, scen.base_seed) == (2, 0)
    more = scen.with_overrides(trials=7)
    assert (more.trials, more.base_seed) == (7, 0)
    reseeded = scen.with_overrides(base_seed=5)
    assert (reseeded.trials, reseeded.base_seed) == (2, 5)


def test_preset_paths_exist():
    for name in ("fig1", "fig2"):
        assert preset_path(name).is_file()


def test_moment_series_csv_roundtrip(fig1, tmp_path):
    scen = fig1.with_overrides(t_end=2.0, trials=10, sample_times=[0.0, 1.0, 2.0])
    mc = lf.monte_carlo_moments(scen)
    path = tmp_path / "series.csv"
    mc.to_csv(path)
    header = path.read_text().split("\n")[0]
    assert header == "t,follower,mean_err_1,mean_err_2,mean_err_3,mean_err_4,mse,mse_halfwidth"
    back = from_csv(path)
    assert back.provenance == "monte_carlo"
    assert np.array_equal(back.times, mc.times)
    assert np.array_equal(back.mse, mc.mse)
    assert np.array_equal(back.mean_err, mc.mean_err)


def _trajectory_csv_reference(traj) -> str:
    """Per-value reference for ``trajectory_to_csv``: a reduced path is one
    component per follower."""
    states = traj.states if traj.states.ndim == 3 else traj.states[:, :, None]
    lines = ["t,node,component,value"]
    for s, t in enumerate(traj.times):
        for node in range(states.shape[1]):
            for comp in range(states.shape[2]):
                lines.append(f"{t:.17g},{node},{comp},{states[s, node, comp]:.17g}")
    return "\n".join(lines) + "\n"


def _series_csv_reference(series) -> str:
    """Per-value reference for ``MomentSeries.to_csv``."""
    n = series.mean_err.shape[2]
    cols = ["t", "follower"] + [f"mean_err_{k + 1}" for k in range(n)] + ["mse"]
    if series.halfwidth is not None:
        cols.append("mse_halfwidth")
    lines = [",".join(cols)]
    for s, t in enumerate(series.times):
        for f, fid in enumerate(series.follower_ids):
            row = [f"{t:.17g}", str(fid)] + [f"{v:.17g}" for v in series.mean_err[s, f]]
            row.append(f"{series.mse[s, f]:.17g}")
            if series.halfwidth is not None:
                row.append(f"{series.halfwidth[s, f]:.17g}")
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


SPECIAL_VALUES = [-0.0, np.nan, 1e-300, 1e300]


@pytest.mark.parametrize("kind", ["full", "reduced", "monte_carlo", "oracle"])
def test_csv_bytes_match_per_value_reference(fig1, tmp_path, kind):
    """Trajectories and moment series go through one CSV writer whose bytes
    are those of formatting every value as f"{x:.17g}" and every id as an
    integer, also for -0.0, nan and the extremes of the float range."""
    scen = fig1.with_overrides(t_end=1.0, trials=4, sample_times=[0.25, 0.5, 1.0])
    path = tmp_path / "out.csv"
    if kind in ("full", "reduced"):
        traj = (lf.simulate_full if kind == "full" else lf.simulate_reduced)(scen, 2)
        states = traj.states.copy()
        states.flat[:4] = SPECIAL_VALUES
        traj = dataclasses.replace(traj, states=states)
        lf.sde.trajectory_to_csv(traj, path)
        reference = _trajectory_csv_reference(traj)
    else:
        series = (lf.monte_carlo_moments if kind == "monte_carlo" else lf.evolve_moments)(scen)
        mean_err, mse = series.mean_err.copy(), series.mse.copy()
        mean_err.flat[:4] = SPECIAL_VALUES
        mse.flat[:3] = [-0.0, 1e-300, 1e300]
        series = dataclasses.replace(series, mean_err=mean_err, mse=mse)
        series.to_csv(path)
        reference = _series_csv_reference(series)
    assert path.read_bytes() == reference.encode()


def _oracle_csv_lines(fig1, tmp_path):
    scen = fig1.with_overrides(t_end=2.0, sample_times=[0.5, 1.0, 2.0])
    path = tmp_path / "series.csv"
    lf.evolve_moments(scen).to_csv(path)
    return path, path.read_text().splitlines()


@pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
def test_moment_series_csv_truncated_rejected(fig1, tmp_path):
    """A file cut short by its last row, or down to its header, leaves the
    grid incomplete; reading it raises instead of returning unfilled values."""
    path, lines = _oracle_csv_lines(fig1, tmp_path)
    assert len(lines) == 1 + 3 * 4
    for kept in (lines[:-1], lines[:1]):
        path.write_text("\n".join(kept) + "\n")
        with pytest.raises(ValueError, match="grid"):
            from_csv(path)


def test_moment_series_csv_reordered_rejected(fig1, tmp_path):
    """Rows sorted follower-major, or two samples' rows swapped, do not form
    the time-major grid that to_csv writes."""
    path, lines = _oracle_csv_lines(fig1, tmp_path)
    rows = lines[1:]
    for reordered in (rows[0::4] + rows[1::4] + rows[2::4] + rows[3::4],
                      rows[4:8] + rows[0:4] + rows[8:]):
        path.write_text("\n".join([lines[0]] + reordered) + "\n")
        with pytest.raises(ValueError, match="grid"):
            from_csv(path)


def test_moment_series_nan_mse_rejected(fig1, tmp_path):
    """A NaN mean-square error is not nonnegative: it is rejected at
    construction and on reading back, instead of passing the envelope check
    as no violation."""
    path, lines = _oracle_csv_lines(fig1, tmp_path)
    series = from_csv(path)
    mse = series.mse.copy()
    mse[1, 2] = np.nan
    with pytest.raises(ValueError, match="nonnegative"):
        dataclasses.replace(series, mse=mse)
    cells = lines[6].split(",")
    cells[-1] = "nan"
    lines[6] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="nonnegative"):
        from_csv(path)
