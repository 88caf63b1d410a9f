"""The benchmark's tracer wraps named leadfollow functions; every name it lists
must still resolve, or a traced benchmark run fails before it measures."""

import functools
import importlib.util
from pathlib import Path

import leadfollow as lf

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _, _ in tracing.TARGETS:
        target = functools.reduce(getattr, attr.split("."), getattr(lf, module))
        assert callable(target), f"{module}.{attr}"
