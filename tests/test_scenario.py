import json

import numpy as np
import pytest

import leadfollow as lf
from leadfollow.scenario import (
    ParseError, ValidationError, preset_path, scenario_from_dict,
)
from leadfollow.series import from_csv


def test_fig1_preset(fig1):
    assert fig1.graph.node_count == 5
    assert not fig1.leaderless
    assert fig1.profile.beta == 0.4
    assert fig1.profile.agent_ids == (1, 2, 3, 4)
    assert fig1.leader_gain == (0.15, 1.0, 1.0)
    assert np.all(fig1.noise.rho == 1.0)
    assert fig1.trials == 500
    assert fig1.dt == 1e-3
    assert fig1.t_end == 100.0
    assert len(fig1.fingerprint) == 16


def test_fig2_preset(fig2):
    assert fig2.leaderless
    assert (0, 4) in fig2.graph.edges()
    # uniform gains 1/(1+t)^0.4 on every node
    assert fig2.profile.agent_ids == (0, 1, 2, 3, 4)
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
    k = scen.noise.edges.index((1, 0))
    assert np.array_equal(scen.noise.rho[k], [1.0, 0.5, 0.5, 0.0])
    assert np.all(scen.noise.rho[:k] == 0.0)

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
