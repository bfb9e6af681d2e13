"""Quick self-check of the benchmark on a tiny input.

Usage (from the root of a checkout): python3 perfbench/selfcheck.py

On a small synthetic county (15 x 8 grid, 6 bridges, 200 samples, two
workers) and on the twin town it confirms that:
  - an untraced run emits every end-to-end metric, and a traced run every
    per-layer metric, each with its unit, as named in BENCHMARK.json;
  - outputs pass against a reference made from them, and a reference
    perturbed in a float (by 1e-11 relative), a quartile class or
    converged_at marks the run failed;
  - every span wrapper is restored after a traced run.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402

TINY = run.Workload(
    "tiny",
    "self-check input",
    {"storm": "storm-1-like", "grid_width": 15, "grid_height": 8, "bridge_count": 6,
     "spans_per_corridor": 2, "demand_count": 9, "supply_count": 40},
    samples=200,
    workers=2,
)
SEED = 3


def _import_package(root):
    sys.path.insert(0, str(root / "src"))
    return child._import_package()


def _tiny_reference(root):
    """Reference record for the tiny workload, made in this process."""
    mods = _import_package(root)
    bench = run.Bench(root, TINY, SEED, None)
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        bench.make_fixture()
        bundle = mods["scenario_io"].load_bundle(bench.bundle)
        result = mods["simulate"].run_scenario(
            bundle.config, bundle.graph, bundle.bridges, bundle.supplies, bundle.demands
        )
        out = bench.work / "out"
        mods["scenario_io"].write_results(result, bundle, out)
        return check.make_reference(out)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)


def _perturbed(reference):
    """(label, reference) pairs, each differing from reference in one value."""
    horizon = reference["horizons"]["short"]
    demand = next(d for d, v in horizon["mean_score"].items() if v > 0.0)
    out = []
    ref = copy.deepcopy(reference)
    ref["horizons"]["short"]["mean_score"][demand] *= 1.0 + 1e-11
    out.append(("mean_score x (1 + 1e-11)", ref))
    ref = copy.deepcopy(reference)
    q = ref["horizons"]["long"]["quartile"]
    q[demand] = "Q1" if q[demand] != "Q1" else "Q2"
    out.append(("quartile class", ref))
    ref = copy.deepcopy(reference)
    conv = ref["horizons"]["long"]["converged_at"]
    ref["horizons"]["long"]["converged_at"] = 101 if conv != 101 else 102
    out.append(("converged_at", ref))
    return out


def _metric_problems(result, expected, label):
    found = []
    if not result["correct"] or result["failed"]:
        found.append(f"{label}: run not correct: {result}")
    for name, unit, _better in expected:
        got = result["metrics"].get(name)
        if got is None or got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            found.append(f"{label}: metric {name} missing or without unit {unit}")
    extra = set(result["metrics"]) - {name for name, _u, _b in expected}
    if extra:
        found.append(f"{label}: unexpected metrics {sorted(extra)}")
    return found


def _benchmark_json_problems(root):
    path = root / "BENCHMARK.json"
    if not path.exists():
        return []
    spec = json.loads(path.read_text())
    found = []
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if listed != list(table):
            found.append(f"BENCHMARK.json {key} differs from run.py")
    for w in spec["workloads"]:
        if w["name"] not in run.WORKLOADS or run.WORKLOADS[w["name"]].why != w["why"]:
            found.append(f"BENCHMARK.json workload {w['name']} differs from run.py")
    return found


def _twin_town_restores(root):
    """Trace a twin-town scenario in this process; wrappers must come off."""
    mods = _import_package(root)
    originals = {(m, a): getattr(mods[m], a) for m, a, _n in TARGETS}
    bundle = mods["scenario_io"].generate_twin_town(p_fail=0.5, samples=200)
    tracer = Tracer(mods)
    tracer.install()
    try:
        if any(getattr(mods[m], a) is f for (m, a), f in originals.items()):
            return ["twin town: a target was not wrapped"]
        mods["simulate"].run_scenario(bundle.config, bundle.graph, bundle.bridges, bundle.supplies, bundle.demands)
    finally:
        restored = tracer.restore()
    found = [] if restored else ["twin town: restore() reported a wrapper left in place"]
    found += [f"twin town: {m}.{a} not restored" for (m, a), f in originals.items() if getattr(mods[m], a) is not f]
    layers = tracer.summary()
    if layers["simulate.draws"] != 200 or layers["simulate.keys"] != 400:
        found.append(f"twin town: draws {layers['simulate.draws']}, keys {layers['simulate.keys']}")
    if abs(layers["simulate.stage_sum_ratio"] - 1.0) > 0.01:
        found.append(f"twin town: stages sum to {layers['simulate.stage_sum_ratio']} of the run")
    return found


def main():
    root = Path.cwd()
    if not (root / "src" / "surgeaccess" / "__init__.py").is_file():
        print("selfcheck: run from the root of a surgeaccess checkout", file=sys.stderr)
        return 2
    found = _benchmark_json_problems(root)
    found += _twin_town_restores(root)

    reference = _tiny_reference(root)
    result, _ = run.run_workload(root, TINY, SEED, 0.1, 0, reference)
    found += _metric_problems(result, run.END_TO_END, "untraced")
    result, details = run.run_workload(root, TINY, SEED, 0.1, 1, reference)
    found += _metric_problems(result, run.PER_LAYER, "traced")
    if any(not a.get("restored", True) for a in details["attempts"]):
        found.append("traced: span wrappers not restored")
    for label, bad in _perturbed(reference):
        result, _ = run.run_workload(root, TINY, SEED, 0.1, 0, bad)
        if result["correct"] or result["failed"] != result["attempted"]:
            found.append(f"perturbed reference ({label}) did not mark the run failed")

    for problem in found:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print("selfcheck " + ("failed" if found else "ok"))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
