"""Regenerate the stored references in perfbench/refs/ from the checkout's src/.

    python3 perfbench/make_refs.py

* ``mc-fig1.json``: exact-oracle (``evolve_moments``) mean-square errors of the
  mc-fig1 scenario, which do not depend on the noise seed.
* ``path-fig2.json``: mean and standard deviation of each path statistic
  (``workloads.path_statistics``) over independent noise paths of the
  path-fig2 scenario.
* ``battery-fig1.json``: the verdict, value and threshold of every battery
  check on the battery-fig1 scenario, and its exact-oracle mean-square
  errors.  The battery is run on two seeds and every verdict and value that
  is gated must agree between them.

Run it only on a commit whose outputs are trusted: the benchmark counts any
departure from these files as a failed operation.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import run
import workloads


def main() -> int:
    lf = run._import_package()
    workloads.REFS.mkdir(exist_ok=True)

    wl = workloads.WORKLOADS["mc-fig1"]
    doc = wl.document(lf, 0)
    oracle = lf.evolve_moments(lf.scenario.scenario_from_dict(doc))
    ref = {"scenario_key": workloads.scenario_key(doc), "times": oracle.times.tolist(),
           "mse": oracle.mse.tolist()}
    (workloads.REFS / "mc-fig1.json").write_text(json.dumps(ref, indent=1) + "\n")

    wl = workloads.WORKLOADS["path-fig2"]
    doc = wl.document(lf, 0)
    stats = []
    for k in range(workloads.PATH_REF_PATHS):
        # Noise seeds from a name of their own, so that no benchmark --seed
        # replays a reference path.
        doc["monte_carlo"]["base_seed"] = workloads.noise_seed("refs:path-fig2", k)
        scen = lf.scenario.scenario_from_dict(doc)
        stats.append(workloads.path_statistics(lf.sde.simulate_full(scen, scen.base_seed)))
    stats = np.array(stats)
    ref = {"scenario_key": workloads.scenario_key(doc), "paths": len(stats),
           "mean": stats.mean(axis=0).tolist(), "sd": stats.std(axis=0, ddof=1).tolist()}
    (workloads.REFS / "path-fig2.json").write_text(json.dumps(ref, indent=1) + "\n")

    wl = workloads.WORKLOADS["battery-fig1"]
    scen = lf.scenario.scenario_from_dict(wl.document(lf, 0))
    oracle = lf.evolve_moments(scen)
    reports = [lf.run_battery(scen, oracle=oracle),
               lf.run_battery(lf.scenario.scenario_from_dict(wl.document(lf, 1)))]
    first = {r.name: r for r in reports[0].results}
    ref = {"scenario_key": workloads.scenario_key(wl.document(lf, 0)),
           "verdicts": {name: r.passed for name, r in first.items()},
           "values": {name: r.value for name, r in first.items()},
           "thresholds": {name: r.threshold for name, r in first.items()},
           "times": oracle.times.tolist(), "mse": oracle.mse.tolist()}
    if not all(workloads.battery_checks(reports[1], oracle, ref).values()):
        print("error: a gated battery verdict or value depends on the noise seed",
              file=sys.stderr)
        return 1
    (workloads.REFS / "battery-fig1.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
