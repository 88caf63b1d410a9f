"""leadfollow benchmark: one workload, end-to-end metrics or a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc-fig1 --seed 1 --seconds 20 --trace 0

The package is imported from the checkout's ``src/`` (never from an installed
copy).  The workload's call sequence is repeated for ``--seconds`` (at least
once) in this one process, each pass's outputs are checked, and the last
stdout line is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
spends half the window untraced and half traced, and reports the per-layer
metrics of the traced pass with the median wall time.  Earlier stdout lines
carry the environment record and the sample details.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One process with one busy thread.  numpy and scipy each load their own
# OpenBLAS, whose default pools would give this process 1 + 2 (nproc - 1)
# threads, more than nproc; their idle workers spin and perturb the timings.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracing  # noqa: E402  (imports numpy, so after the thread settings)
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_SAMPLES = 3

SETUP_CODE = """\
import sys
import leadfollow
leadfollow.load_scenario(sys.argv[1])
print(leadfollow.__file__, flush=True)
"""

LAYERS = ("scenario", "topology", "plant", "gains", "matrices", "sde", "moments",
          "rates", "verify", "io", "integrate", "cli")
VERIFY_CHECKS = ("check_follower_spectrum", "check_controller_identities",
                 "check_reduction_consistency", "check_oracle_agreement",
                 "check_oracle_slope", "check_jordan_recursion", "check_transition_bound",
                 "check_gain_decay", "check_filter_tails")
VERIFY_RESULTS = ("follower_spectrum_min_real", "controller_identities_residual",
                  "reduction_projection_gap", "monte_carlo_oracle_sigmas",
                  "oracle_slope_deviation", "jordan_recursion_vs_ode",
                  "transition_bound_log_excess", "gain_decay_log_ratio_steps",
                  "gain_decay_log_ratio_at_1e4", "filter_constant_drive_residual",
                  "filter_exponential_drive_ratio", "filter_power_drive_ratio")

class BenchError(RuntimeError):
    pass


def _import_package():
    if not (SRC / "leadfollow" / "__init__.py").is_file():
        raise BenchError(f"no leadfollow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import leadfollow
    if not Path(leadfollow.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"leadfollow imported from {leadfollow.__file__}, not {SRC}")
    return leadfollow


def setup_sample(doc_path: Path) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    leadfollow and loaded and validated the scenario."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(doc_path)], cwd=ROOT,
                          env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        finally:
            proc.kill()
    if proc.returncode not in (0, -9) or not line.strip():
        raise BenchError(f"set-up process failed with status {proc.returncode}")
    if not Path(line.strip()).resolve().is_relative_to(SRC):
        raise BenchError(f"set-up process imported {line.strip()}")
    return elapsed


def environment(lf) -> dict:
    import numpy
    import scipy
    blas = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": {k: os.environ.get(k) for k in thread_vars},
        "process_threads": threads,
        "leadfollow": lf.__version__,
    }


def _describe(name: str, values: list[float]) -> str:
    s = sorted(values)
    n = len(s)
    q1, _, q3 = statistics.quantiles(s, n=4) if n > 1 else (s[0], s[0], s[0])
    line = (f"{name}: median={statistics.median(s):.6g} q1={q1:.6g} q3={q3:.6g} "
            f"min={s[0]:.6g} max={s[-1]:.6g} n={n}")
    if n >= 20:
        # Highest percentile with at least ten samples beyond it.
        k = n - 10
        line += f" p{100 * k / n:.0f}={s[k - 1]:.6g}"
    else:
        line += " tail=none(n<20)"
    return line


class Bench:
    def __init__(self, lf, workload, seed: int, work: Path):
        self.lf = lf
        self.wl = workload
        self.work = work
        self.doc = workload.document(lf, seed)
        self.doc_path = work / "scenario.json"
        self.doc_path.write_text(json.dumps(self.doc, indent=2))
        self.ref = workload.reference()
        if self.ref is None:
            raise BenchError(f"missing refs/{workload.name}.json")
        if self.ref["scenario_key"] != workloads.scenario_key(self.doc):
            raise BenchError(f"refs/{workload.name}.json does not match the workload's "
                             "scenario; regenerate it with perfbench/make_refs.py")
        self.attempted = 0
        self.failed = 0
        self.failures: set[str] = set()
        self.recorded: dict[str, int] = {}
        self.passes = 0
        self.first_digest = None

    def _check(self, scen, out, result):
        outcome = self.wl.check(self.lf, scen, out, result, self.ref)
        digest = self.wl.digest(result)
        self.first_digest = self.first_digest or digest
        replayed = digest == self.first_digest
        self.attempted += outcome.attempted + 1
        self.failed += outcome.failed + (not replayed)
        self.failures.update(outcome.notes + (() if replayed else ("replay_identical",)))
        for item in outcome.recorded:
            self.recorded[item] = self.recorded.get(item, 0) + 1
        shutil.rmtree(out)

    def _out(self) -> Path:
        self.passes += 1
        out = self.work / f"pass{self.passes}"
        out.mkdir()
        return out

    def untraced(self, scen) -> float:
        out = self._out()
        start = time.perf_counter()
        result = self.wl.sequence(self.lf, scen, out)
        wall = time.perf_counter() - start
        self._check(scen, out, result)
        return wall

    def traced(self) -> dict:
        out = self._out()
        tracer = tracing.Tracer()
        with tracing.instrumented(self.lf, tracer):
            with tracer.span("setup", "setup") as setup_root:
                scen = self.lf.scenario.load_scenario(self.doc_path)
            cpu0 = time.process_time()
            start = time.perf_counter()
            with tracer.span(f"cli.{self.wl.name}", "cli") as root:
                result = self.wl.sequence(self.lf, scen, out)
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu0
        rng_words = tracer.rng_words()
        self._check(scen, out, result)
        return {"wall": wall, "cpu": cpu, "rng_words": rng_words, "result": result,
                "counts": dict(tracer.counts), "setup": tracer.summary(setup_root),
                "run": tracer.summary(root)}


def repeat(window: float, fn) -> list:
    """Call ``fn`` until ``window`` seconds have passed, at least once."""
    out = []
    start = time.perf_counter()
    while not out or time.perf_counter() - start < window:
        out.append(fn())
    return out


def layer_metrics(t: dict, untraced_wall: float) -> dict:
    incl, calls, self_s = t["run"]["incl"], t["run"]["calls"], t["run"]["self"]
    by_name = t["run"]["self_by_name"]
    counts = t["counts"]

    def inc(*names):
        return sum(incl.get(n, 0.0) for n in names)

    m = {f"{layer}.s": (self_s.get(layer, 0.0), "s") for layer in LAYERS}
    sde_s = inc("sde._run_full", "sde._run_reduced")
    evolve_s = inc("moments.evolve_moments")
    m.update({
        "scenario.load_s": (t["setup"]["incl"].get("scenario.load_scenario", 0.0), "s"),
        "scenario.calls": (counts["scenario.calls"], "count"),
        "sde.run_s": (sde_s, "s"),
        "sde.trial_steps": (counts["sde.trial_steps"], "count"),
        "sde.ns_per_trial_step": (1e9 * sde_s / max(counts["sde.trial_steps"], 1), "ns"),
        "sde.rng_words": (t["rng_words"], "count"),
        "moments.evolve_s": (evolve_s, "s"),
        "moments.rk4_steps": (counts["moments.rk4_steps"], "count"),
        "moments.us_per_rk4_step": (1e6 * evolve_s / max(counts["moments.rk4_steps"], 1), "us"),
        "rates.mc_aggregate_s": (by_name.get("rates.monte_carlo_moments", 0.0), "s"),
        "rates.jordan_s": (inc("rates.jordan_transition", "rates.jordan_transition_ode"), "s"),
        "rates.transition_bound_s": (inc("rates.transition_bound_check"), "s"),
        "rates.filter_s": (inc("rates.filter_response"), "s"),
        "rates.fit_s": (inc("rates.fit_power_law"), "s"),
        "matrices.eigenvalues_s": (inc("matrices.eigenvalues"), "s"),
        "matrices.eigenvalues_calls": (counts["matrices.eigenvalues_calls"], "count"),
        "io.csv_s": (inc("sde.trajectory_to_csv", "series.MomentSeries.to_csv"), "s"),
        "io.csv_bytes": (counts["io.csv_bytes"], "B"),
    })
    for check in VERIFY_CHECKS:
        m[f"verify.{check}_s"] = (inc(f"verify.{check}"), "s")
    report = t["result"].get("report")
    values = {r.name: r.value for r in report.results} if report is not None else {}
    for name in VERIFY_RESULTS:
        m[f"verify.{name}_value"] = (values.get(name, 0.0), "1")
    m.update({
        "process.cpu_s": (t["cpu"], "s"),
        "process.cpu_per_wall": (t["cpu"] / t["wall"], "1"),
        "trace.wall_s": (t["wall"], "s"),
        "trace.overhead_s": (t["wall"] - untraced_wall, "s"),
        "trace.spans": (sum(calls.values()), "count"),
    })
    return m


def run(args) -> int:
    lf = _import_package()
    wl = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench_out" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(lf, wl, args.seed, work)
        setup = [setup_sample(bench.doc_path) for _ in range(SETUP_SAMPLES)]
        scen = lf.load_scenario(bench.doc_path)

        if args.trace:
            walls = repeat(args.seconds / 2, lambda: bench.untraced(scen))
            traced = repeat(args.seconds / 2, bench.traced)
            traced.sort(key=lambda t: t["wall"])
            pick = traced[(len(traced) - 1) // 2]
            metrics = layer_metrics(pick, statistics.median(walls))
            print(_describe("trace.wall_s", [t["wall"] for t in traced]))
        else:
            walls = repeat(args.seconds, lambda: bench.untraced(scen))
            wall = statistics.median(walls)
            metrics = {
                "wall_s": (wall, "s"),
                "setup_s": (statistics.median(setup), "s"),
                "trial_steps_per_s": (wl.trial_steps(lf, scen) / wall, "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "MB"),
            }
        print("env " + json.dumps(environment(lf), sort_keys=True))
        print(f"workload: {wl.name} seed={args.seed} noise_seed={scen.base_seed} "
              f"scenario={scen.fingerprint} trace={args.trace}")
        print(_describe("wall_s", walls))
        print(_describe("setup_s", setup))
        print(f"failed_share: {bench.failed / bench.attempted:.6g} "
              f"({bench.failed}/{bench.attempted}) {sorted(bench.failures)}")
        print(f"recorded, not gated: {json.dumps(bench.recorded, sort_keys=True)}")
        print(json.dumps({
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        ap.error("--seconds must be positive")
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
