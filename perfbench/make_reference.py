"""Write the committed reference outputs for a workload's default seed.

Usage (from the root of a checkout):

    python3 perfbench/make_reference.py storm2 calm-sampling storm1-w2

Runs one traced scenario per workload at run.DEFAULT_SEED and writes
perfbench/references/<workload>.json: per-demand mean_score, cov and
quartile, group averages, no_access_fraction and converged_at per
horizon, plus the deterministic counts and the digest of src/ they came
from. Regenerate only when a change is meant to alter the outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402


def make(root, workload):
    bench = run.Bench(root, workload, run.DEFAULT_SEED, None)
    bench.work.mkdir(parents=True, exist_ok=True)
    out = bench.work / "out"
    try:
        bench.make_fixture()
        _wall, reply = bench.child({"mode": "trace", "bundle": str(bench.bundle), "out": str(out), "workers": 1})
        expect = {"storm": workload.storm, "seed": run.DEFAULT_SEED, "samples": workload.samples}
        found = check.problems(out, bench.bundle, expect)
        if found:
            raise SystemExit(f"{workload.name}: outputs fail the invariant check: {found}")
        reference = check.make_reference(out)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    reference["seed"] = run.DEFAULT_SEED
    reference["source_digest"] = run.source_digest(root)
    reference["counts"] = {name: reply["layers"][name] for name in run.COUNTS}
    path = HERE / "references" / f"{workload.name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(root)}")


def main(names):
    root = Path.cwd()
    for name in names or sorted(run.WORKLOADS):
        make(root, run.WORKLOADS[name])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
