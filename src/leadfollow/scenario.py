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
grid, the grid the engine steps on (t_end rounded to whole steps of dt), and
times that share a step are merged.  The gains list covers every node
including the leader.  A leaderless profile covers every node; in a
leader-following scenario the leader's triple is ignored, since the autonomous
leader has no gain.  ``noise`` is one intensity for every edge or at most one
entry per edge, never both; it resolves into ``noise_rate``, the noise
variance rate of each node.  ``leaderless`` must be a JSON boolean and
``monte_carlo`` may be left out (2 trials, seed 0); at most MAX_TRIALS trials
and MAX_STEPS steps.
Validation is aggregated: every failure is reported, not just the first, and
each starts with the name of its section.  A key the shape above does not name
is a failure, never dropped.

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
from . import topology
from .matrices import MAX_DIM, frozen_copy


# Every trial has its own noise generator, built before the first step.
MAX_TRIALS = 10 ** 6
# The engine loops over 16-step sub-blocks in Python, so a run's time grows
# with its step count (nothing it holds does): 50 times fig2's 200k steps.
MAX_STEPS = 10 ** 7


class ParseError(ValueError):
    pass


class ValidationError(ValueError):
    def __init__(self, failures: list[str]):
        self.failures = list(failures)
        super().__init__("; ".join(self.failures))


class UnsuitedError(ValueError):
    """A valid scenario that a computation cannot take; the message says what it needs."""


@dataclass(frozen=True)
class SimScenario:
    graph: topology.Digraph
    lap: topology.LaplacianPartition
    plant: plant_mod.PlantModel
    profile: gains_mod.GainProfile          # the sim_nodes, in order
    noise_rate: np.ndarray                   # (N+1,) noise variance rate q of each node
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
        """Nodes whose states are integrated, in ``profile`` order: every
        node when leaderless, else the followers."""
        if self.leaderless:
            return list(range(self.graph.node_count))
        return self.graph.follower_indices

    def sample_steps(self) -> np.ndarray:
        """The grid step k = rint(t / dt) of each sample time t, shape (S,)."""
        return np.rint(self.sample_times / self.dt).astype(int)

    def drift(self) -> plant_mod.ClosedLoopDrift:
        """Closed-loop drift F(a) of the ``sim_nodes``."""
        L = self.lap.full if self.leaderless else self.lap.L2
        return plant_mod.closed_loop_drift(self.plant, L)

    def with_overrides(self, dt=None, t_end=None, trials=None, base_seed=None,
                       sample_times=None) -> "SimScenario":
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
        if trials is not None or base_seed is not None:
            mc = raw.setdefault("monte_carlo", {"trials": self.trials, "base_seed": self.base_seed})
            if trials is not None:
                mc["trials"] = trials
            if base_seed is not None:
                mc["base_seed"] = base_seed
        if sample_times is not None:
            raw["integration"]["sample_times"] = list(np.asarray(sample_times, dtype=float))
        return scenario_from_dict(raw)

    raw_json: str = field(default="", compare=False)


def _integer(value, name: str) -> int:
    """A JSON integer: an int or an integral float, never a boolean or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _resolve_sample_times(spec, dt: float, t_end: float) -> np.ndarray:
    if spec is None:
        arr = np.linspace(0.0, t_end, 101)
    elif isinstance(spec, dict):
        kind = spec.get("kind", "linspace")
        start, stop = float(spec["start"]), float(spec["stop"])
        count = _integer(spec["count"], "sample_times count")
        if count > MAX_STEPS + 1:
            raise ParseError(f"sample_times count {count} exceeds MAX_STEPS + 1 = {MAX_STEPS + 1}")
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
    # Sorted and deduplicated as np.unique would, without its numpy.ma import.
    idx = np.sort(np.rint(arr / dt))
    idx = idx[np.append(True, idx[1:] != idx[:-1])]
    if idx[0] < 0 or idx[-1] > round(t_end / dt):
        raise ParseError("sample_times outside [0, t_end]")
    return idx * dt


def _noise_rate(cfg, graph: topology.Digraph, plant: plant_mod.PlantModel) -> np.ndarray:
    """Noise variance rate q of every node, shape (node_count,).  Edge j -> i
    feeds a_i w_ij K2 (rho_ij o dW_ij) into node i's last state component, and
    each edge has one receiver, so in law node i gets a_i sqrt(q_i) dB_i with
    q_i = sum_j w_ij^2 |K2 o rho_ij|^2.  An edge without an entry has rho 0."""
    rho = np.zeros(graph.weights.shape + (plant.n,))  # (receiver, sender, component)
    if "rho" in cfg:
        if "edges" in cfg:
            raise ValueError("give either 'rho' or 'edges', not both")
        rho[...] = float(cfg["rho"])
    else:
        edges, seen = set(graph.edges()), set()
        for entry in cfg["edges"]:
            key = (_integer(entry["to"], "edge 'to'"), _integer(entry["from"], "edge 'from'"))
            if key not in edges:
                raise ValueError(f"entry for nonexistent edge {key}")
            if key in seen:
                raise ValueError(f"second entry for edge {key}")
            seen.add(key)
            rho[key] = np.asarray(entry["rho"], dtype=float)
    per_edge = ((graph.weights[:, :, None] * plant.K2[0] * rho) ** 2).sum(axis=2)
    return frozen_copy(per_edge.sum(axis=1))


def _gain_profile(cfg, graph, leaderless) -> gains_mod.GainProfile:
    """Gains of the simulated nodes; the node count is checked when the graph section built."""
    triples = np.asarray(cfg["agents"], dtype=float)
    if triples.ndim != 2:
        raise gains_mod.GainError("expected per-agent (mu, scale, shift) triples")
    if graph is not None and len(triples) != graph.node_count:
        raise gains_mod.GainError(
            f"need one gain triple per node ({graph.node_count}), got {len(triples)}"
        )
    lead = None if leaderless else (graph.leader_index if graph is not None else 0)
    ids = [i for i in range(len(triples)) if i != lead]
    return gains_mod.make_profile(triples[ids], cfg["beta"])


def _init_states(cfg, graph, plant) -> np.ndarray:
    init = np.asarray(cfg["states"], dtype=float)
    if graph is not None and plant is not None and init.shape != (graph.node_count, plant.n):
        raise ValueError(f"expected shape {(graph.node_count, plant.n)}, got {init.shape}")
    return init


def _integration(cfg) -> tuple[float, float, np.ndarray]:
    dt, t_end = float(cfg["dt"]), float(cfg["t_end"])
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    if np.rint(t_end / dt) > MAX_STEPS:
        raise ValueError(f"t_end / dt = {t_end / dt:.6g} steps exceed the supported "
                         f"maximum {MAX_STEPS}")
    return dt, t_end, _resolve_sample_times(cfg.get("sample_times"), dt, t_end)


def _monte_carlo(cfg) -> tuple[int, int]:
    trials, base_seed = _integer(cfg["trials"], "trials"), _integer(cfg["base_seed"], "base_seed")
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must lie in [1, {MAX_TRIALS}], got {cfg['trials']!r}")
    if not 0 <= base_seed < 2 ** 64:
        raise ValueError(f"base_seed must lie in [0, 2**64), got {base_seed}")
    return trials, base_seed


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _non_finite_fields(node, path: str = "") -> list[str]:
    """Dotted paths of the fields holding a NaN, an infinity or a null array
    element (numpy reads it as NaN), each listed once."""
    if isinstance(node, dict):
        found = [p for k, v in node.items()
                 for p in _non_finite_fields(v, f"{path}.{k}" if path else str(k))]
    elif isinstance(node, (list, tuple)):
        found = [p for v in node for p in ([path] if v is None else _non_finite_fields(v, path))]
    else:
        found = [path] if isinstance(node, float) and not np.isfinite(node) else []
    return list(dict.fromkeys(found))


# The keys each object of a scenario document may hold, by dotted path; the
# entries of a list share their list's path.
_KEYS = {
    "": ("graph", "plant", "gains", "noise", "init", "integration", "monte_carlo", "leaderless"),
    "graph": ("weights", "leader"), "plant": ("alpha", "b"), "gains": ("beta", "agents"),
    "noise": ("rho", "edges"), "noise.edges": ("to", "from", "rho"), "init": ("states",),
    "integration": ("dt", "t_end", "sample_times"),
    "integration.sample_times": ("kind", "start", "stop", "count"),
    "monte_carlo": ("trials", "base_seed"),
}


def _unknown_keys(node, path: str) -> list[str]:
    """Dotted paths of the keys below ``path`` that ``_KEYS`` does not name."""
    if isinstance(node, list):
        return [p for v in node for p in _unknown_keys(v, path)]
    if not isinstance(node, dict) or path not in _KEYS:
        return []
    found = []
    for key, value in node.items():
        sub = f"{path}.{key}" if path else str(key)
        found += [sub] if key not in _KEYS[path] else _unknown_keys(value, sub)
    return found


def scenario_from_dict(raw: dict) -> SimScenario:
    """Build and validate a scenario, aggregating every validation failure.

    Each failure starts with the name of its section.  A section holding a NaN,
    an infinity or a null array element is reported once per such field and is
    not built: the numerics behind it would fail or pass on garbage.
    """
    if not isinstance(raw, dict):
        raise ParseError(f"a scenario is a JSON object, got {type(raw).__name__}")
    non_finite = _non_finite_fields(raw)
    failures = [f"{p.split('.')[0]}: non-finite value in {p}" for p in non_finite]
    failed = {p.split(".")[0] for p in non_finite}
    failures += [f"{p.split('.')[0]}: unknown key {p}" if "." in p else f"{p}: unknown section"
                 for p in dict.fromkeys(_unknown_keys(raw, ""))]

    def section(name, build, *needs):
        """build(raw[name]), or None with the failure listed.  A section that
        is non-finite or needs a section that failed is not built."""
        if name not in failed and not failed.intersection(needs):
            try:
                return build(raw[name])
            except KeyError as exc:
                failures.append(f"{name}: missing {exc}")
            except (TypeError, ValueError) as exc:
                failures.append(f"{name}: {exc}")
        failed.add(name)
        return None

    leaderless = section("leaderless", _boolean) if "leaderless" in raw else False
    graph = section("graph", lambda cfg: topology.build_digraph(
        cfg["weights"], _integer(cfg.get("leader", 0), "leader"),
        allow_leader_neighbors=leaderless), "leaderless")
    plant = section("plant", lambda cfg: plant_mod.build_plant(cfg["alpha"], cfg["b"]))
    profile = section("gains", lambda cfg: _gain_profile(cfg, graph, leaderless))
    noise_rate = section("noise", lambda cfg: _noise_rate(cfg, graph, plant), "graph", "plant")
    init = section("init", lambda cfg: _init_states(cfg, graph, plant))
    integration = section("integration", _integration)
    mc = section("monte_carlo", _monte_carlo) if "monte_carlo" in raw else (2, 0)

    if graph is not None and graph.node_count - 1 > MAX_DIM:
        failures.append(f"graph: {graph.node_count - 1} followers exceed the supported "
                        f"maximum {MAX_DIM}")
    if graph is not None and not leaderless and not topology.has_spanning_tree(graph):
        failures.append("graph: no spanning tree (set leaderless: true if intentional)")

    if failures:
        raise ValidationError(failures)

    dt, t_end, sample_times = integration
    trials, base_seed = mc
    raw_json = json.dumps(raw, sort_keys=True)
    fingerprint = hashlib.sha256(raw_json.encode()).hexdigest()[:16]
    init.setflags(write=False)
    sample_times.setflags(write=False)
    scen = SimScenario(
        graph=graph, lap=topology.laplacian_partition(graph), plant=plant, profile=profile,
        noise_rate=noise_rate, init_states=init, dt=dt, t_end=t_end, sample_times=sample_times,
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


def preset_path(name: str):
    """Path of a bundled preset: 'fig1' (leader-following) or 'fig2' (leaderless)."""
    return resources.files("leadfollow").joinpath(f"presets/{name}.json")


def load_preset(name: str) -> SimScenario:
    """Load and validate a bundled preset (see ``preset_path``)."""
    return scenario_from_dict(json.loads(preset_path(name).read_text()))
