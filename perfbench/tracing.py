"""Spans around leadfollow's entry points, recorded from outside the package.

``instrumented(lf, tracer)`` replaces each target function with a wrapper that
records a span (name, layer, start, end, parent) in ``tracer``.  A function is
replaced at every import site: every ``leadfollow`` module attribute that is
the same object is re-bound, because modules import names with
``from .x import f`` and would otherwise keep calling the original.  On exit
every original is put back.  ``numpy.random.Philox`` is swapped for a subclass
that keeps its instances, so the 64-bit words each noise stream consumed can
be read from its counter after the run.

No profiler is used: only the targets below pay a wrapper call.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

import numpy as np


def _trial_steps(counts, args, kwargs, result):
    # sde._run_full / _run_reduced return (trials, samples, ...) arrays.
    counts["sde.trial_steps"] += result.shape[0] * args[0].steps


def _rk4_steps(counts, args, kwargs, result):
    counts["moments.rk4_steps"] += args[0].steps


def _csv_bytes(counts, args, kwargs, result):
    counts["io.csv_bytes"] += os.path.getsize(args[1])


def _calls(key):
    def count(counts, args, kwargs, result):
        counts[key] += 1
    return count


# (module, attribute, layer, counter).  A dotted attribute names a method.
TARGETS = [
    ("scenario", "load_scenario", "scenario", None),
    ("scenario", "scenario_from_dict", "scenario", _calls("scenario.calls")),
    ("topology", "build_digraph", "topology", None),
    ("topology", "laplacian", "topology", None),
    ("topology", "laplacian_partition", "topology", None),
    ("topology", "has_spanning_tree", "topology", None),
    ("topology", "random_spanning_tree_digraph", "topology", None),
    ("plant", "build_plant", "plant", None),
    ("gains", "make_profile", "gains", None),
    ("gains", "rate_constants", "gains", None),
    ("gains", "decay_dominance_log_ratios", "gains", None),
    ("matrices", "eigenvalues", "matrices", _calls("matrices.eigenvalues_calls")),
    ("matrices", "is_hurwitz", "matrices", None),
    ("sde", "_run_full", "sde", _trial_steps),
    ("sde", "_run_reduced", "sde", _trial_steps),
    ("sde", "simulate_full", "sde", None),
    ("sde", "simulate_reduced", "sde", None),
    ("sde", "trajectory_to_csv", "io", _csv_bytes),
    ("series", "MomentSeries.to_csv", "io", _csv_bytes),
    ("moments", "evolve_moments", "moments", _rk4_steps),
    ("rates", "monte_carlo_moments", "rates", None),
    ("rates", "envelope_check", "rates", None),
    ("rates", "fit_power_law", "rates", None),
    ("rates", "jordan_transition", "rates", None),
    ("rates", "jordan_transition_ode", "rates", None),
    ("rates", "transition_bound_check", "rates", None),
    ("rates", "filter_response", "rates", None),
    ("integrate", "rk4_path", "integrate", None),
    ("verify", "run_battery", "verify", None),
    ("verify", "oracle_deviation_sigmas", "verify", None),
    ("verify", "check_follower_spectrum", "verify", None),
    ("verify", "check_controller_identities", "verify", None),
    ("verify", "check_reduction_consistency", "verify", None),
    ("verify", "check_oracle_agreement", "verify", None),
    ("verify", "check_oracle_slope", "verify", None),
    ("verify", "check_jordan_recursion", "verify", None),
    ("verify", "check_transition_bound", "verify", None),
    ("verify", "check_gain_decay", "verify", None),
    ("verify", "check_filter_tails", "verify", None),
]

COUNTERS = ("scenario.calls", "matrices.eigenvalues_calls", "sde.trial_steps",
            "moments.rk4_steps", "io.csv_bytes")


class Tracer:
    """In-memory span list plus the counters recorded at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.philox: list = []

    def open(self, name: str, layer: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        idx = self.open(name, layer)
        try:
            yield idx
        finally:
            self.close(idx)

    def rng_words(self) -> int:
        """64-bit words drawn from every Philox stream created while traced."""
        total = 0
        for bg in self.philox:
            st = bg.state
            counter = sum(int(w) << (64 * k) for k, w in enumerate(st["state"]["counter"]))
            # Each counter step fills a 4-word buffer; buffer_pos words of the
            # current buffer have been handed out (4 = none buffered yet).
            total += 4 * counter - 4 + int(st["buffer_pos"])
        return total

    def summary(self, root: int) -> dict:
        """Inclusive time, self time and calls per span name, and self time per
        layer, over the subtree of span ``root``."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        inside = [False] * len(self.names)
        inside[root] = True
        child_time = [0.0] * len(self.names)
        for i in range(root + 1, len(self.names)):
            p = self.parents[i]
            if p >= 0 and inside[p]:
                inside[i] = True
                child_time[p] += dur[i]
        incl: dict[str, float] = {}
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        self_by_name: dict[str, float] = {}
        for i in range(root, len(self.names)):
            if not inside[i]:
                continue
            name, layer = self.names[i], self.layers[i]
            own = dur[i] - child_time[i]
            incl[name] = incl.get(name, 0.0) + dur[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[layer] = self_s.get(layer, 0.0) + own
            self_by_name[name] = self_by_name.get(name, 0.0) + own
        return {"wall": dur[root], "incl": incl, "calls": calls, "self": self_s,
                "self_by_name": self_by_name}


def _resolve(module, attr):
    owner = module
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _wrap(fn, name, layer, counter, tracer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counter is not None:
            counter(tracer.counts, args, kwargs, result)
        return result
    return wrapper


@contextlib.contextmanager
def instrumented(lf, tracer: Tracer):
    """Wrap every target at every import site and count Philox words."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == lf.__name__ or name.startswith(lf.__name__ + "."))]
    undo = []
    try:
        for mod_name, attr, layer, counter in TARGETS:
            owner, leaf = _resolve(getattr(lf, mod_name), attr)
            original = getattr(owner, leaf)
            wrapper = _wrap(original, f"{mod_name}.{attr}", layer, counter, tracer)
            if "." in attr:
                sites = [(owner, leaf)]
            else:
                sites = [(m, k) for m in modules for k, v in list(vars(m).items())
                         if v is original]
            for site, key in sites:
                undo.append((site, key, original))
                setattr(site, key, wrapper)

        base = np.random.Philox

        class RecordingPhilox(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.philox.append(self)

        undo.append((np.random, "Philox", base))
        np.random.Philox = RecordingPhilox
        yield tracer
    finally:
        for site, key, original in reversed(undo):
            setattr(site, key, original)
