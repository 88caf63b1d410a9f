"""Experiment descriptions: config parsing, cross-module validation, fingerprints.

A scenario is one self-contained JSON document::

    {
      "graph":       {"weights": [[...], ...], "leader": 0},
      "plant":       {"alpha": [...], "b": [...]},
      "gains":       {"beta": 0.4, "agents": [[mu, scale, shift], ...]},
      "noise":       {"rho": 1.0} | {"edges": [{"to": i, "from": j, "rho": [...]}]},
      "init":        {"states": [[...], ...]},
      "integration": {"dt": 1e-3, "t_end": 100.0, "sample_times": ...},
      "monte_carlo": {"trials": 500, "base_seed": 1},
      "leaderless":  false
    }

``sample_times`` is either an explicit list or {"kind": "linspace"|"logspace",
"start": ..., "stop": ..., "count": ...}; times are snapped to the integration
grid, the grid the engines step on (t_end rounded to whole steps of dt), and
times that share a step are merged.  The gains list covers every node
including the leader.  A leaderless profile covers every node; in a
leader-following scenario the leader's triple is ignored, since the autonomous
leader has no gain.
Validation is aggregated: every failure is reported, not just the first.

The scenario is the only place that sets the sample times, the trial count and
the noise seed; ``SimScenario.with_overrides`` derives one with other values.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import gains as gains_mod
from . import plant as plant_mod
from . import sde, topology
from .integrate import snap_to_grid


class ParseError(ValueError):
    pass


class ValidationError(ValueError):
    def __init__(self, failures: list[str]):
        self.failures = list(failures)
        super().__init__("; ".join(self.failures))


@dataclass(frozen=True)
class SimScenario:
    graph: topology.Digraph
    lap: topology.LaplacianPartition
    plant: plant_mod.PlantModel
    profile: gains_mod.GainProfile          # followers (leader-following) or all nodes
    noise: sde.NoiseModel
    init_states: np.ndarray                  # (N+1, n)
    dt: float
    t_end: float
    sample_times: np.ndarray
    trials: int
    base_seed: int
    leaderless: bool
    fingerprint: str

    @property
    def steps(self) -> int:
        return int(round(self.t_end / self.dt))

    @property
    def sim_nodes(self) -> list[int]:
        """Nodes whose states are integrated, in ``profile.agent_ids`` order:
        every node when leaderless, else the followers."""
        if self.leaderless:
            return list(range(self.graph.node_count))
        return self.graph.follower_indices

    def sample_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """``snap_to_grid`` of the sample times: (step of each sample, sample
        stored at each step or -1)."""
        return snap_to_grid(self.sample_times, self.dt, self.steps)

    def drift(self) -> plant_mod.ClosedLoopDrift:
        """Closed-loop drift F(a) of the ``sim_nodes``."""
        L = self.lap.full if self.leaderless else self.lap.L2
        return plant_mod.closed_loop_drift(self.plant, L)

    def with_overrides(self, dt=None, t_end=None, trials=None, base_seed=None,
                       sample_times=None, rho=None) -> "SimScenario":
        """Rebuild the scenario with a few integration/Monte Carlo fields replaced."""
        raw = json.loads(self.raw_json)
        if dt is not None:
            raw["integration"]["dt"] = dt
        if t_end is not None:
            # A {kind, start, stop, count} grid that ends at the horizon follows it.
            spec = raw["integration"].get("sample_times")
            if isinstance(spec, dict) and float(spec["stop"]) == float(raw["integration"]["t_end"]):
                spec["stop"] = t_end
            raw["integration"]["t_end"] = t_end
        if trials is not None:
            raw["monte_carlo"]["trials"] = trials
        if base_seed is not None:
            raw["monte_carlo"]["base_seed"] = base_seed
        if sample_times is not None:
            raw["integration"]["sample_times"] = list(np.asarray(sample_times, dtype=float))
        if rho is not None:
            raw["noise"] = {"rho": rho}
        return scenario_from_dict(raw)

    raw_json: str = field(default="", compare=False)


def _resolve_sample_times(spec, dt: float, t_end: float) -> np.ndarray:
    if spec is None:
        arr = np.linspace(0.0, t_end, 101)
    elif isinstance(spec, dict):
        kind = spec.get("kind", "linspace")
        start, stop = float(spec["start"]), float(spec["stop"])
        count = int(spec["count"])
        if kind == "logspace":
            if min(start, stop) <= 0:
                raise ParseError("logspace sample_times need start > 0 and stop > 0")
            arr = np.logspace(np.log10(start), np.log10(stop), count)
        elif kind == "linspace":
            arr = np.linspace(start, stop, count)
        else:
            raise ParseError(f"unknown sample_times kind {kind!r}")
    else:
        arr = np.asarray(spec, dtype=float)
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise ParseError("sample_times must be a nonempty list of finite times")
    idx = np.unique(np.rint(arr / dt))
    if idx[0] < 0 or idx[-1] > round(t_end / dt):
        raise ParseError("sample_times outside [0, t_end]")
    return idx * dt


def _noise_model(cfg, graph: topology.Digraph, n: int) -> sde.NoiseModel:
    if "rho" in cfg:
        return sde.uniform_noise(graph, n, float(cfg["rho"]))
    edges = tuple(graph.edges())
    rho = np.zeros((len(edges), n))
    index = {e: k for k, e in enumerate(edges)}
    for entry in cfg["edges"]:
        key = (int(entry["to"]), int(entry["from"]))
        if key not in index:
            raise ValidationError([f"noise entry for nonexistent edge {key}"])
        val = np.asarray(entry["rho"], dtype=float)
        rho[index[key]] = val if val.shape else np.full(n, float(val))
    rho.setflags(write=False)
    return sde.NoiseModel(edges=edges, rho=rho)


def _non_finite_fields(node, path: str = "") -> list[str]:
    """Dotted paths of the fields holding a NaN or an infinity, each listed once."""
    if isinstance(node, dict):
        found = [p for k, v in node.items()
                 for p in _non_finite_fields(v, f"{path}.{k}" if path else str(k))]
    elif isinstance(node, (list, tuple)):
        found = [p for v in node for p in _non_finite_fields(v, path)]
    else:
        found = [path] if isinstance(node, float) and not np.isfinite(node) else []
    return list(dict.fromkeys(found))


def scenario_from_dict(raw: dict) -> SimScenario:
    """Build and validate a scenario, aggregating every validation failure.

    A section holding a NaN or an infinity is reported once per such field and
    is not built: the numerics behind it would fail or pass on garbage.
    """
    non_finite = _non_finite_fields(raw)
    failures = [f"{p.split('.')[0]}: non-finite value in {p}" for p in non_finite]
    skip = {p.split(".")[0] for p in non_finite}
    leaderless = bool(raw.get("leaderless", False))

    graph = lap = plant = profile = noise = None
    if "graph" not in skip:
        try:
            gcfg = raw["graph"]
            graph = topology.build_digraph(
                gcfg["weights"], int(gcfg.get("leader", 0)),
                allow_leader_neighbors=leaderless,
            )
            lap = topology.laplacian_partition(graph)
        except (KeyError, topology.GraphError) as exc:
            failures.append(f"graph: {exc}")

    if "plant" not in skip:
        try:
            pcfg = raw["plant"]
            plant = plant_mod.build_plant(pcfg["alpha"], pcfg["b"])
        except (KeyError, plant_mod.PlantError) as exc:
            failures.append(f"plant: {exc}")

    if "gains" not in skip:
        try:
            ncfg = raw["gains"]
            triples = np.asarray(ncfg["agents"], dtype=float)
            if graph is not None and triples.shape[0] != graph.node_count:
                raise gains_mod.GainError(
                    f"need one gain triple per node ({graph.node_count}), got {triples.shape[0]}"
                )
            if leaderless:
                ids = list(range(triples.shape[0]))
                profile = gains_mod.make_profile(triples, ncfg["beta"], agent_ids=ids)
            else:
                lead = graph.leader_index if graph is not None else 0
                fol = [i for i in range(triples.shape[0]) if i != lead]
                profile = gains_mod.make_profile(triples[fol], ncfg["beta"], agent_ids=fol)
        except (KeyError, gains_mod.GainError) as exc:
            failures.append(f"gains: {exc}")

    if graph is not None and plant is not None and "noise" not in skip:
        try:
            noise = _noise_model(raw["noise"], graph, plant.n)
        except (KeyError, ValueError) as exc:
            failures.append(f"noise: {exc}")

    init = None
    if "init" not in skip:
        try:
            init = np.asarray(raw["init"]["states"], dtype=float)
            if graph is not None and plant is not None:
                if init.shape != (graph.node_count, plant.n):
                    failures.append(
                        f"init: expected shape {(graph.node_count, plant.n)}, got {init.shape}"
                    )
                    init = None
        except KeyError as exc:
            failures.append(f"init: missing {exc}")

    dt = t_end = None
    sample_times = None
    if "integration" not in skip:
        try:
            icfg = raw["integration"]
            dt = float(icfg["dt"])
            t_end = float(icfg["t_end"])
            if dt <= 0 or t_end <= 0:
                failures.append("integration: dt and t_end must be positive")
            else:
                sample_times = _resolve_sample_times(icfg.get("sample_times"), dt, t_end)
        except (KeyError, TypeError, ValueError) as exc:
            failures.append(f"integration: {exc}")

    trials, base_seed = 2, 0
    if "monte_carlo" not in skip:
        try:
            mcfg = raw.get("monte_carlo", {"trials": 2, "base_seed": 0})
            trials = int(mcfg["trials"])
            base_seed = int(mcfg["base_seed"])
            if trials < 1:
                failures.append("monte_carlo: trials must be >= 1")
        except KeyError as exc:
            failures.append(f"monte_carlo: missing {exc}")

    if graph is not None and not leaderless and not topology.has_spanning_tree(graph):
        failures.append("graph: no spanning tree (set leaderless: true if intentional)")

    if failures:
        raise ValidationError(failures)

    raw_json = json.dumps(raw, sort_keys=True)
    fingerprint = hashlib.sha256(raw_json.encode()).hexdigest()[:16]
    init.setflags(write=False)
    sample_times.setflags(write=False)
    scen = SimScenario(
        graph=graph, lap=lap, plant=plant, profile=profile, noise=noise,
        init_states=init, dt=dt, t_end=t_end, sample_times=sample_times,
        trials=trials, base_seed=base_seed, leaderless=leaderless,
        fingerprint=fingerprint, raw_json=raw_json,
    )
    # Drift stability heuristic at t = 0, where the gains are largest.
    if dt * np.linalg.norm(scen.drift()(profile.gain_all(0.0)), 2) > 1.0:
        raise ValidationError(["integration: dt violates the drift stability heuristic at t = 0"])
    return scen


def load_scenario(path) -> SimScenario:
    """Load and validate a scenario config file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return scenario_from_dict(raw)


def load_preset(name: str) -> SimScenario:
    """Bundled scenario presets: 'fig1' (leader-following) or 'fig2' (leaderless)."""
    ref = resources.files("leadfollow").joinpath(f"presets/{name}.json")
    return scenario_from_dict(json.loads(ref.read_text()))


def preset_path(name: str):
    return resources.files("leadfollow").joinpath(f"presets/{name}.json")
