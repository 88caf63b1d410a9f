"""Mutation score of the checks: which catalogued one-line mutants ``verify``
and Tier-1 catch.

Usage (stdlib only; about 30 s per mutant):

    python3 tools/mutation_score.py

It mutates the checkout it lies in, by the catalogue ``tools/mutants.json``
next to it; to score another tree, run a copy of ``tools/`` placed in that
tree.  Each entry of the catalogue has a ``name``, what the mutant breaks
(``why``), a ``file`` under the root, a text (``old``) that must occur in it
exactly once, the text that replaces it (``new``), and the runs expected to
catch the mutant (``caught_by``, from "verify" and "tier1").  Every mutant is
made in its own temporary copy of the root; the checkout is never edited.  In
that copy the script runs CLI ``verify`` on the ``fig1`` preset (caught: a
nonzero exit) and the Tier-1 suite (caught: any failure), after checking
that the unmutated copy passes both.  It prints one line per mutant, then the
two scores as a JSON line, and exits 1 if a mutant's outcome differs from
its ``caught_by``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CATALOGUE = ROOT / "tools" / "mutants.json"
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "runs", ".perfbench_out")
TIMEOUT = 900  # seconds per run; a run that takes longer counts as caught
VERIFY = [sys.executable, "-c", "from leadfollow.cli import main; main()",
          "verify", "--out", "runs"]
TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


def run(copy: Path, command: list[str]) -> tuple[bool, str]:
    """Run ``command`` in ``copy`` on its own sources; (caught, what failed)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    env.pop("LEADFOLLOW_OUT", None)
    try:
        proc = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return True, f"timed out after {TIMEOUT} s"
    text = proc.stdout + proc.stderr
    if command is VERIFY:
        failed = [line.split(":")[0] for line in text.splitlines() if "status=FAIL" in line]
        detail = ", ".join(failed) or (text.strip().splitlines() or [""])[-1]
    else:
        summary = re.findall(r"(\d+) (failed|errors?)", text)
        detail = " ".join(f"{count} {kind}" for count, kind in summary) or "all passed"
    return proc.returncode != 0, detail if proc.returncode else "exit 0"


def outcome(entry: dict | None) -> dict:
    """Both runs on a fresh copy of ROOT, mutated by ``entry`` unless None."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        if entry is not None:
            path = copy / entry["file"]
            text = path.read_text()
            if text.count(entry["old"]) != 1:
                raise SystemExit(f"{entry['name']}: old text occurs {text.count(entry['old'])} "
                                 f"times in {entry['file']}, not once")
            path.write_text(text.replace(entry["old"], entry["new"]))
        return {name: run(copy, command) for name, command in
                (("verify", VERIFY), ("tier1", TIER1))}


def main() -> int:
    entries = json.loads(CATALOGUE.read_text())
    base = outcome(None)
    if any(caught for caught, _ in base.values()):
        print(f"unmutated tree fails: {base}")
        return 1
    scores, surprises = {"verify": 0, "tier1": 0}, []
    for entry in entries:
        got = outcome(entry)
        for name, (caught, _) in got.items():
            scores[name] += caught
        caught_by = [name for name, (caught, _) in got.items() if caught]
        if caught_by != entry["caught_by"]:
            surprises.append(entry["name"])
        print(f"{entry['name']}: verify {got['verify'][1]}; tier1 {got['tier1'][1]}"
              + ("" if caught_by == entry["caught_by"] else f"; expected {entry['caught_by']}"),
              flush=True)
    print(json.dumps({"mutants": len(entries), **scores, "unexpected": surprises}))
    return 1 if surprises else 0


if __name__ == "__main__":
    sys.exit(main())
