"""Span tracing for one scenario process, installed from outside the package.

`Tracer.install()` replaces the module-level functions that
`simulate.run_scenario` reaches through module attributes with wrappers
that record a span per call: name, start, end, the index of the span
that was open when the call began, and a few per-call counts. Spans stay
in memory; `summary()` turns them into per-layer metrics. `restore()`
puts every original back and reports whether it did.

Pool workers forked while the wrappers are installed inherit them, but
their spans stay in the worker; per-layer network and access figures
for a multi-worker run therefore come from a single-process pass.
"""

from __future__ import annotations

import time

# (module, attribute) pairs wrapped by install(), with the span name.
TARGETS = (
    ("simulate", "run_scenario", "simulate.run"),
    ("hazard", "evaluate_exposures", "hazard.exposure"),
    ("fragility", "uplift_probability", "fragility.prob"),
    ("simulate", "sample_failures", "simulate.draw"),
    ("network", "closure_mask", "network.closure_mask"),
    ("network", "snap_sites", "network.snap"),
    ("network", "travel_time_table", "network.table"),
    ("network", "dijkstra", "network.dijkstra"),
    ("access", "score_vector", "access.score"),
    ("access", "group_names", "access.group_names"),
    ("simulate", "convergence_report", "simulate.convergence"),
)


def _count_call(name, args, kwargs, result):
    """Per-call counts recorded with the span (work done at this boundary)."""
    if name == "hazard.exposure":
        return {"sites": len(args[1]) + len(args[2])}
    if name == "fragility.prob":
        return {"at_risk": int(0.0 < result < 1.0)}
    if name == "simulate.draw":
        return {"draws": len(args[0])}
    if name == "network.dijkstra":
        indices = kwargs.get("indices")
        return {"sources": len(indices) if indices is not None else args[0].shape[0]}
    if name == "network.table":
        mask = args[1]
        return {"pairs": len(result), "closed": len(mask) if mask is not None else 0}
    if name == "network.closure_mask":
        graph, draw, horizon = args[0], args[3], args[4]
        if any(draw.values()):
            return {}
        bridges, roads = set(), 0
        for eid, why in result.provenance.items():
            if why != "inundation":
                continue
            bridge_id = graph.edges[eid].bridge_id
            if bridge_id is None:
                roads += 1
            else:
                bridges.add(bridge_id)
        return {"horizon": horizon, "inundated_bridges": len(bridges), "inundated_roads": roads}
    return {}


class Tracer:
    """Records spans from wrapped package functions in this process."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []  # [name, start, end, parent index, counts]
        self._stack = []
        self._originals = {}
        self.missing = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, {}]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[4] = _count_call(name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for module_name, attr, name in TARGETS:
            module = self.modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._originals[(module_name, attr)] = original
            setattr(module, attr, self._wrap(name, original))

    def restore(self):
        """Put every original back; True when each attribute is the original again."""
        for (module_name, attr), original in self._originals.items():
            setattr(self.modules[module_name], attr, original)
        return all(
            getattr(self.modules[m], a) is original for (m, a), original in self._originals.items()
        )

    def summary(self):
        """Per-layer times and counts from the spans of the last run_scenario call."""
        runs = [i for i, s in enumerate(self.spans) if s[0] == "simulate.run"]
        if not runs:
            raise RuntimeError("no run_scenario span recorded")
        run_index = runs[-1]
        run_start, run_end = self.spans[run_index][1], self.spans[run_index][2]
        inside = [s for s in self.spans[run_index + 1 :] if run_start <= s[1] and s[2] <= run_end]

        def named(name):
            return [s for s in inside if s[0] == name]

        def total(name):
            return sum(s[2] - s[1] for s in named(name))

        def count(name, key):
            return sum(s[4].get(key, 0) for s in named(name))

        def first_start(name, default):
            spans = named(name)
            return spans[0][1] if spans else default

        exposure = named("hazard.exposure")
        exposure_end = exposure[0][2] if exposure else run_start
        draw_start = first_start("simulate.draw", exposure_end)
        eval_start = first_start("network.snap", draw_start)
        aggregate_start = first_start("access.group_names", eval_start)

        draw_s = total("simulate.draw")
        tables = named("network.table")
        table_s = total("network.table")
        dijkstra_s = total("network.dijkstra")
        draws = len(named("simulate.draw"))
        horizons = {s[4]["horizon"] for s in named("network.closure_mask") if "horizon" in s[4]}
        keys = draws * len(horizons)
        out = {
            "simulate.run_s": run_end - run_start,
            "hazard.exposure_s": total("hazard.exposure"),
            "hazard.sites": count("hazard.exposure", "sites"),
            "fragility.prob_s": draw_start - exposure_end,
            "fragility.at_risk_bridges": count("fragility.prob", "at_risk"),
            "simulate.draw_s": draw_s,
            "simulate.draws": count("simulate.draw", "draws"),
            "simulate.key_s": eval_start - draw_start - draw_s,
            "simulate.keys": keys,
            "simulate.eval_s": aggregate_start - eval_start,
            "simulate.aggregate_s": run_end - aggregate_start,
            "simulate.convergence_s": total("simulate.convergence"),
            "network.table_s": table_s,
            "network.dijkstra_s": dijkstra_s,
            "network.table_other_s": table_s - dijkstra_s,
            "network.dijkstra_calls": len(named("network.dijkstra")),
            "network.dijkstra_sources": count("network.dijkstra", "sources"),
            "network.reachable_pairs": count("network.table", "pairs"),
            "network.closed_edges_mean": (
                sum(s[4]["closed"] for s in tables) / len(tables) if tables else 0.0
            ),
            "access.score_s": total("access.score"),
            "access.score_calls": len(named("access.score")),
            "simulate.distinct_networks": len(tables),
            "simulate.cache_hit_ratio": 1.0 - len(tables) / keys if keys else 0.0,
        }
        for s in named("network.closure_mask"):
            if "horizon" in s[4]:
                out[f"hazard.inundated_bridges_{s[4]['horizon']}"] = s[4]["inundated_bridges"]
                out[f"hazard.inundated_roads_{s[4]['horizon']}"] = s[4]["inundated_roads"]
        stages = ("hazard.exposure_s", "fragility.prob_s", "simulate.draw_s", "simulate.key_s",
                  "simulate.eval_s", "simulate.aggregate_s")
        out["simulate.stage_sum_ratio"] = sum(out[k] for k in stages) / out["simulate.run_s"]
        return out
