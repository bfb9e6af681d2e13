"""Run the benchmark over several seeds and summarise it as a baseline.

Usage (from the root of a checkout):

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For every workload in BENCHMARK.json (or those named with --workloads)
this runs `perfbench/run.py` once per seed untraced, then once traced at
the default seed. It writes, per workload, the median, quartiles and
spread ((Q3 - Q1) / median) of every end-to-end metric, the traced
per-layer metrics and counts, the machine, and the digest of src/.
A performance change reports these figures for its parent and itself,
measured on the same machine with the same seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    report = {"seeds": seeds, "run_seconds": args.seconds, "source_digest": run.source_digest(Path.cwd()),
              "workloads": {}}
    for name in args.workloads.split(","):
        values, attempted, failed = {}, 0, 0
        for seed in seeds:
            details, result = bench(name, seed, args.seconds, 0)
            report["machine"] = details["machine"]
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(name, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        details, traced = bench(name, run.DEFAULT_SEED, args.seconds, 1)
        entry = {
            "attempted": attempted,
            "failed": failed,
            "end_to_end": {metric: summarise(v) for metric, v in values.items()},
            "per_layer": {metric: m["value"] for metric, m in traced["metrics"].items()},
            "traced_correct": traced["correct"],
            "count_mismatch": details["count_mismatch"],
        }
        report["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            print(f"{name} {metric}: median {s['median']:.4f} spread {s['spread']:.4f}", flush=True)
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
