"""surgeaccess benchmark: Monte Carlo storm scenarios through the public API.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload storm2 --seed 42 --seconds 30 --trace 0

Each run generates the workload's synthetic county from --seed (the seed
also becomes the Monte Carlo master seed), then drives the package from
fresh processes (perfbench/child.py): scenario_io.generate_fixture,
load_bundle, simulate.run_scenario and write_results. The loop is closed
and batch: one scenario at a time, started from this single process.

--trace 0 measures end-to-end metrics: set-up-only processes first, then
whole scenario processes until --seconds have passed (at least one), and
reports medians. --trace 1 runs one untraced scenario and one traced one
(plus a single-worker traced pass for multi-worker workloads, whose
network spans live in the pool workers) and reports per-layer metrics
and the tracing overhead. Every scenario's outputs are checked
(check.py); at the workload's default seed they must also match the
committed reference in perfbench/references/.

The last line of standard output is the result object; the line before
it holds the details (machine, per-attempt values, counts and flags),
which are also appended to .perfbench_work/results.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402

WORK_DIR = ".perfbench_work"
DEFAULT_SEED = 42
SETUP_REPEATS = 7
# A run must end within 180 s; children are killed past this budget.
RUN_BUDGET_S = 170.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict
    samples: int
    workers: int

    @property
    def storm(self):
        return self.spec["storm"]


# BENCHMARK.json lists storm2 and calm-sampling. storm1-w2 runs only by
# hand: with two pool workers on a shared two-CPU machine its total_s
# moved by 16% (quartile spread over five seeds), and the repeats needed
# to steady it would make a full set of benchmark runs too long.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "storm2",
            "storm-2-like county, N=1000, one process: network/access bound (1.8k distinct networks)",
            {"storm": "storm-2-like"},
            samples=1000,
            workers=1,
        ),
        Workload(
            "storm1-w2",
            "storm-1-like county, N=1000, two pool workers: same network layer through process-pool start-up and pickling",
            {"storm": "storm-1-like"},
            samples=1000,
            workers=2,
        ),
        Workload(
            "calm-sampling",
            "weak storm (peak 4 m, decay 9 km), N=20000, one process: failure sampling and keying, network layer bypassed",
            {"storm": "calm", "surge_peak_m": 4.0, "surge_decay_m": 9000.0},
            samples=20000,
            workers=1,
        ),
    )
}

END_TO_END = (
    ("total_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("samples_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("scenario_io.load_s", "s", "lower"),
    ("scenario_io.write_s", "s", "lower"),
    ("scenario_io.output_bytes", "bytes", "lower"),
    ("hazard.exposure_s", "s", "lower"),
    ("hazard.sites", "count", "lower"),
    ("hazard.inundated_bridges_short", "count", "lower"),
    ("hazard.inundated_roads_short", "count", "lower"),
    ("hazard.inundated_bridges_long", "count", "lower"),
    ("hazard.inundated_roads_long", "count", "lower"),
    ("fragility.prob_s", "s", "lower"),
    ("fragility.at_risk_bridges", "count", "lower"),
    ("simulate.run_s", "s", "lower"),
    ("simulate.draw_s", "s", "lower"),
    ("simulate.draws", "count", "lower"),
    ("simulate.key_s", "s", "lower"),
    ("simulate.keys", "count", "lower"),
    ("simulate.eval_s", "s", "lower"),
    ("simulate.eval_serial_s", "s", "lower"),
    ("simulate.aggregate_s", "s", "lower"),
    ("simulate.convergence_s", "s", "lower"),
    ("simulate.distinct_networks", "count", "lower"),
    ("simulate.cache_hit_ratio", "ratio", "higher"),
    ("simulate.score_matrix_bytes", "bytes", "lower"),
    ("simulate.stage_sum_ratio", "ratio", "higher"),
    ("network.table_s", "s", "lower"),
    ("network.dijkstra_s", "s", "lower"),
    ("network.table_other_s", "s", "lower"),
    ("network.dijkstra_calls", "count", "lower"),
    ("network.dijkstra_sources", "count", "lower"),
    ("network.reachable_pairs", "count", "lower"),
    ("network.closed_edges_mean", "count", "lower"),
    ("access.score_s", "s", "lower"),
    ("access.score_calls", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# Deterministic counts: identical on every run of the same code and input.
# The first group is also seen by the parent of a multi-worker pass.
PARENT_COUNTS = (
    "hazard.sites",
    "hazard.inundated_bridges_short",
    "hazard.inundated_roads_short",
    "hazard.inundated_bridges_long",
    "hazard.inundated_roads_long",
    "fragility.at_risk_bridges",
    "simulate.draws",
    "simulate.keys",
)
COUNTS = PARENT_COUNTS + (
    "simulate.distinct_networks",
    "network.dijkstra_calls",
    "network.dijkstra_sources",
    "network.reachable_pairs",
    "access.score_calls",
)


class ChildError(RuntimeError):
    pass


class Bench:
    """One benchmark run of one workload in one checkout."""

    def __init__(self, root, workload, seed, reference):
        self.root = Path(root)
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.work = self.root / WORK_DIR / f"{workload.name}-{seed}-{os.getpid()}"
        self.bundle = self.work / "bundle"
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ)
        src = str(self.root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.attempts = []
        self.digests = set()

    def child(self, request):
        """Run one child process; returns (wall seconds, its JSON reply)."""
        cmd = [sys.executable, str(HERE / "child.py"), json.dumps(request)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise ChildError(f"{request['mode']} child exceeded the run budget")
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise ChildError(f"{request['mode']} child exited {proc.returncode}: {stderr.strip()[-2000:]}")
        return wall, json.loads(stdout.strip().splitlines()[-1])

    def make_fixture(self):
        spec = dict(self.workload.spec, seed=self.seed, scenario_seed=self.seed,
                    samples=self.workload.samples, workers=self.workload.workers)
        self.child({"mode": "fixture", "spec": spec, "bundle": str(self.bundle)})

    def scenario(self, mode, **extra):
        """One scenario process plus its output check; records the attempt."""
        out_dir = self.work / f"out{len(self.attempts)}"
        attempt = {"mode": mode, **extra}
        self.attempts.append(attempt)
        try:
            wall, reply = self.child({"mode": mode, "bundle": str(self.bundle), "out": str(out_dir), **extra})
        except ChildError as exc:
            attempt["problems"] = [str(exc)]
            return attempt
        attempt.update(reply, total_s=wall)
        expect = {"storm": self.workload.storm, "seed": self.seed, "samples": self.workload.samples}
        attempt["problems"] = check.problems(out_dir, self.bundle, expect, self.reference)
        if mode == "trace" and not reply["restored"]:
            attempt["problems"].append("span wrappers were not restored")
        if not attempt["problems"]:
            self.digests.add(check.digest(out_dir))
            if len(self.digests) > 1:
                attempt["problems"].append("outputs differ from an earlier scenario of this run")
        shutil.rmtree(out_dir, ignore_errors=True)
        return attempt

    def ok(self):
        return [a for a in self.attempts if not a["problems"]]


def measure(bench, seconds):
    setups = [bench.child({"mode": "setup", "bundle": str(bench.bundle)})[1]["setup_s"] for _ in range(SETUP_REPEATS)]
    start = time.monotonic()
    while True:
        bench.scenario("run")
        elapsed = time.monotonic() - start
        last = bench.attempts[-1].get("total_s", elapsed)
        if elapsed >= seconds or time.monotonic() + 1.5 * last > bench.deadline:
            break
    ok = bench.ok()
    if not ok:
        return {}
    setups += [a["setup_s"] for a in ok]
    return {
        "total_s": statistics.median(a["total_s"] for a in ok),
        "setup_s": statistics.median(setups),
        "samples_per_s": statistics.median(a["samples"] / a["run_s"] for a in ok),
        "peak_rss_mb": statistics.median(a["peak_rss_mb"] for a in ok),
    }


def measure_traced(bench):
    base = bench.scenario("run")
    spans_path = bench.root / WORK_DIR / f"spans-{bench.workload.name}-{bench.seed}.json"
    traced = bench.scenario("trace", spans=str(spans_path))
    serial = traced
    if bench.workload.workers > 1:
        serial = bench.scenario("trace", workers=1)
    if any(a["problems"] for a in (base, traced, serial)):
        return {}
    metrics = {
        name: traced["layers"][name]
        for name in ("simulate.run_s", "hazard.exposure_s", "fragility.prob_s", "simulate.draw_s",
                     "simulate.key_s", "simulate.eval_s", "simulate.aggregate_s",
                     "simulate.convergence_s", "simulate.stage_sum_ratio")
    }
    metrics.update((name, value) for name, value in serial["layers"].items() if name not in metrics)
    metrics["simulate.eval_serial_s"] = serial["layers"]["simulate.eval_s"]
    metrics.update({
        "scenario_io.load_s": traced["load_s"],
        "scenario_io.write_s": traced["write_s"],
        "scenario_io.output_bytes": traced["output_bytes"],
        "simulate.score_matrix_bytes": traced["samples"] * traced["demands"] * 8 * traced["horizons"] * 2,
        "trace.overhead_s": traced["total_s"] - base["total_s"],
        "trace.overhead_ratio": traced["total_s"] / base["total_s"] - 1.0,
    })
    flags = []
    for name in PARENT_COUNTS:
        if traced["layers"][name] != serial["layers"][name]:
            flags.append(f"{name}: {traced['layers'][name]} with {traced['workers']} workers, "
                         f"{serial['layers'][name]} with 1")
    return metrics, flags, traced.get("missing", [])


def source_digest(root):
    h = hashlib.sha256()
    for path in sorted((Path(root) / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def record_counts(root, workload, seed, counts, reference):
    """Store this run's counts and flag any that differ from an earlier run
    of the same source, or from the reference when the source matches it."""
    digest = source_digest(root)
    store = Path(root) / WORK_DIR / "counts.json"
    seen = json.loads(store.read_text()) if store.exists() else {}
    key = f"{workload}/{seed}/{digest}"
    earlier = [seen.get(key, {})]
    if reference is not None and reference.get("source_digest") == digest:
        earlier.append(reference.get("counts", {}))
    flags = [
        f"{name}: {counts[name]} now, {prev[name]} before"
        for prev in earlier
        for name in counts
        if name in prev and prev[name] != counts[name]
    ]
    seen.setdefault(key, counts)
    store.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n")
    return digest, flags


def machine(versions):
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model or platform.processor(),
        "platform": platform.platform(),
        **versions,
    }


def load_reference(workload, seed):
    path = HERE / "references" / f"{workload.name}.json"
    if seed != DEFAULT_SEED or not path.exists():
        return None
    return json.loads(path.read_text())


def run_workload(root, workload, seed, seconds, trace, reference):
    """Run one benchmark; returns (result object, details) or raises ChildError."""
    bench = Bench(root, workload, seed, reference)
    bench.work.mkdir(parents=True, exist_ok=True)
    details = {"workload": workload.name, "seed": seed, "trace": trace, "reference": reference is not None}
    try:
        bench.make_fixture()
        flags, missing = [], []
        if trace:
            traced = measure_traced(bench)
            metrics = {}
            if traced:
                metrics, flags, missing = traced
                counts = {name: metrics[name] for name in COUNTS}
                details["counts"] = counts
                details["source_digest"], count_flags = record_counts(root, workload.name, seed, counts, reference)
                flags += count_flags
        else:
            metrics = measure(bench, seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    versions = next((a["versions"] for a in bench.attempts if "versions" in a), {})
    details.update(
        machine=machine(versions),
        count_mismatch=flags,
        missing_targets=missing,
        attempts=[{k: v for k, v in a.items() if k not in ("layers", "versions")} for a in bench.attempts],
    )
    failed = sum(1 for a in bench.attempts if a["problems"])
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(bench.attempts),
        "failed": failed,
        "metrics": {},
    }
    units = dict((n, u) for n, u, _b in (PER_LAYER if trace else END_TO_END))
    if metrics:
        result["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    return result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "surgeaccess" / "__init__.py").is_file():
        print("perfbench: run from the root of a surgeaccess checkout (src/surgeaccess missing)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        result, details = run_workload(root, workload, args.seed, args.seconds, args.trace,
                                       load_reference(workload, args.seed))
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if not result["metrics"]:
        print(f"perfbench: no attempt succeeded: {details['attempts']}", file=sys.stderr)
        return 1
    for attempt in details["attempts"]:
        for problem in attempt["problems"]:
            print(f"perfbench: {attempt['mode']}: {problem}", file=sys.stderr)
    for flag in details["count_mismatch"]:
        print(f"perfbench: count changed between runs of the same code: {flag}", file=sys.stderr)
    line = json.dumps({"details": details, "result": result}, sort_keys=True)
    with open(root / WORK_DIR / "results.jsonl", "a") as fh:
        fh.write(line + "\n")
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
