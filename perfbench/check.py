"""Output check for one scenario run, from the written files alone.

`problems()` returns a list of reasons an output directory is wrong; an
empty list means the run passed. Invariants that hold for any seed are
always checked. When a reference is given (a workload's default seed),
the outputs must also match it: floats within 1e-12 relative, and
quartile classes, no-access fractions and `converged_at` exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

HORIZONS = ("short", "long")
OUTPUT_FILES = ("results_short.geojson", "results_long.geojson", "group_summary.csv", "manifest.json")
FLOAT_REL_TOL = 1e-12
# Tolerance for sums the checker recomputes in its own order.
RECOMPUTE_REL_TOL = 1e-9
QUARTILES = ("Q1", "Q2", "Q3", "Q4")


def digest(out_dir):
    """SHA-256 over the output files, in a fixed order."""
    h = hashlib.sha256()
    for name in OUTPUT_FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def read_config(bundle_dir):
    cfg = {}
    with open(os.path.join(bundle_dir, "scenario.cfg")) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if "=" in line:
                key, value = line.split("=", 1)
                cfg[key.strip()] = value.strip()
    return cfg


def read_bundle_sites(bundle_dir):
    """Demand rows (id, population, {group: weight}) and total capacity."""
    with open(os.path.join(bundle_dir, "demands.csv"), newline="") as fh:
        reader = csv.DictReader(fh)
        groups = [c for c in reader.fieldnames if c not in ("demand_id", "x", "y", "population")]
        demands = [
            (row["demand_id"], float(row["population"]), {g: float(row[g]) for g in groups})
            for row in reader
        ]
    with open(os.path.join(bundle_dir, "supplies.csv"), newline="") as fh:
        capacity = sum(float(row["capacity"]) for row in csv.DictReader(fh))
    return demands, capacity


def read_outputs(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    horizons = {}
    for horizon in manifest["horizons"]:
        with open(os.path.join(out_dir, f"results_{horizon}.geojson")) as fh:
            features = json.load(fh)["features"]
        horizons[horizon] = [f["properties"] for f in features]
    groups = {}
    with open(os.path.join(out_dir, "group_summary.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            groups.setdefault(row["horizon"], {})[row["group"]] = (float(row["weight"]), float(row["average_score"]))
    return {"manifest": manifest, "horizons": horizons, "groups": groups}


def make_reference(out_dir):
    """Reference record of the outputs the check compares against."""
    out = read_outputs(out_dir)
    ref = {"horizons": {}}
    for horizon, rows in out["horizons"].items():
        summary = out["manifest"]["summary"][horizon]
        ref["horizons"][horizon] = {
            "mean_score": {r["demand_id"]: r["mean_score"] for r in rows},
            "cov": {r["demand_id"]: r["cov"] for r in rows},
            "quartile": {r["demand_id"]: r["quartile"] for r in rows},
            "group_averages": {g: avg for g, (_w, avg) in out["groups"][horizon].items()},
            "no_access_fraction": summary["no_access_fraction"],
            "converged_at": summary["converged_at"],
        }
    return ref


def _close(a, b, rel_tol):
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=0.0)


def _invariants(out, bundle_dir, expect):
    found = []
    cfg = read_config(bundle_dir)
    samples, window = int(cfg["samples"]), int(cfg.get("convergence_window", 100))
    demands, capacity = read_bundle_sites(bundle_dir)
    manifest = out["manifest"]
    for key in ("storm", "seed", "samples"):
        if manifest.get(key) != expect[key]:
            found.append(f"manifest {key} {manifest.get(key)!r} != {expect[key]!r}")
    if tuple(manifest["horizons"]) != HORIZONS:
        found.append(f"horizons {manifest['horizons']} != {list(HORIZONS)}")
        return found

    population = sum(p for _d, p, _g in demands)
    pin = 1000.0 * capacity / population
    means = {}
    for horizon in HORIZONS:
        rows = out["horizons"][horizon]
        ids = [r["demand_id"] for r in rows]
        if ids != [d for d, _p, _g in demands]:
            found.append(f"{horizon}: demand ids differ from demands.csv")
            continue
        mean = {r["demand_id"]: r["mean_score"] for r in rows}
        means[horizon] = mean
        for r in rows:
            m, c, q = r["mean_score"], r["cov"], r["quartile"]
            if not (math.isfinite(m) and m >= 0.0 and math.isfinite(c) and c >= 0.0):
                found.append(f"{horizon} {r['demand_id']}: mean {m} or cov {c} not finite and >= 0")
            if m == 0.0 and c != 0.0:
                found.append(f"{horizon} {r['demand_id']}: zero mean with cov {c}")
            if q not in QUARTILES or r["horizon"] != horizon or r["storm"] != expect["storm"]:
                found.append(f"{horizon} {r['demand_id']}: bad quartile, horizon or storm label")
        # Quartile classes are rank based: equal scores share a class and
        # classes never decrease as the score grows.
        by_value = {}
        for r in rows:
            by_value.setdefault(r["mean_score"], set()).add(r["quartile"])
        last = -1
        for value in sorted(by_value):
            labels = by_value[value]
            rank = QUARTILES.index(min(labels)) if labels <= set(QUARTILES) else -1
            if len(labels) != 1 or rank < last:
                found.append(f"{horizon}: quartile classes not monotone in score at {value}")
                break
            last = rank

        summary = manifest["summary"][horizon]
        zeros = sum(1 for m in mean.values() if m == 0.0) / len(mean)
        if summary["no_access_fraction"] != zeros:
            found.append(f"{horizon}: no_access_fraction {summary['no_access_fraction']} != {zeros}")
        conv = summary["converged_at"]
        if conv is not None and not window <= conv <= samples:
            found.append(f"{horizon}: converged_at {conv} outside [{window}, {samples}]")

        groups = out["groups"].get(horizon, {})
        weights = {"overall": {d: p for d, p, _g in demands}}
        for name in demands[0][2] if demands else ():
            weights[name] = {d: g[name] for d, _p, g in demands}
        for name, w in weights.items():
            total = sum(w.values())
            if total <= 0.0:
                continue
            if name not in groups:
                found.append(f"{horizon}: group {name} missing from group_summary.csv")
                continue
            expected = sum(w[d] * mean[d] for d in w) / total
            weight, avg = groups[name]
            if not (_close(weight, total, RECOMPUTE_REL_TOL) and _close(avg, expected, RECOMPUTE_REL_TOL)):
                found.append(f"{horizon}: group {name} average {avg} != {expected} from mean scores")
        if "overall" in groups:
            if summary["average_score"] != groups["overall"][1]:
                found.append(f"{horizon}: manifest average differs from group_summary.csv")
            # 2SFCA conservation: population-weighted access never exceeds
            # 1000 x all capacity / all population.
            if groups["overall"][1] > pin * (1.0 + RECOMPUTE_REL_TOL):
                found.append(f"{horizon}: overall average {groups['overall'][1]} above conservation pin {pin}")
    if len(means) == 2:
        # A demand cut off after the water recedes was cut off before it.
        for d, m in means["long"].items():
            if m == 0.0 and means["short"][d] != 0.0:
                found.append(f"{d}: no long-horizon access but short-horizon access")
    return found


def _against_reference(out, ref):
    found = []
    for horizon, want in ref["horizons"].items():
        rows = {r["demand_id"]: r for r in out["horizons"].get(horizon, [])}
        if set(rows) != set(want["mean_score"]):
            found.append(f"{horizon}: demand ids differ from the reference")
            continue
        for field in ("mean_score", "cov"):
            bad = [d for d, v in want[field].items() if not _close(rows[d][field], v, FLOAT_REL_TOL)]
            if bad:
                found.append(f"{horizon}: {field} differs from the reference at {len(bad)} demand(s), first {bad[0]}")
        bad = [d for d, q in want["quartile"].items() if rows[d]["quartile"] != q]
        if bad:
            found.append(f"{horizon}: quartile differs from the reference at {len(bad)} demand(s), first {bad[0]}")
        groups = out["groups"].get(horizon, {})
        for name, v in want["group_averages"].items():
            if name not in groups or not _close(groups[name][1], v, FLOAT_REL_TOL):
                found.append(f"{horizon}: group {name} average differs from the reference")
        summary = out["manifest"]["summary"][horizon]
        for key in ("no_access_fraction", "converged_at"):
            if summary[key] != want[key]:
                found.append(f"{horizon}: {key} {summary[key]} != reference {want[key]}")
    return found


def problems(out_dir, bundle_dir, expect, reference=None):
    """Reasons the outputs in out_dir are wrong (empty when they pass).

    expect holds the storm label, seed and sample count the run was
    configured with; reference is a make_reference() record or None.
    """
    try:
        out = read_outputs(out_dir)
        found = _invariants(out, bundle_dir, expect)
        if reference is not None:
            found += _against_reference(out, reference)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable outputs: {exc!r}"]
    return found
