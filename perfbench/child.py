"""One fresh scenario process, driven by run.py through the public API.

Usage: python3 perfbench/child.py '<json request>'

Request modes:
  fixture  write the synthetic bundle for a workload spec
  setup    import the package and load the bundle (set-up time only)
  run      import, load, run_scenario and write_results, untraced
  trace    the same with span wrappers installed (see spans.py)

The last line of standard output is one JSON object with the timings
and counts of the request. The package is imported from `src/` of the
checkout, which run.py puts on PYTHONPATH.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _import_package():
    from surgeaccess import access, fragility, hazard, network, scenario_io, simulate

    return {
        "access": access,
        "fragility": fragility,
        "hazard": hazard,
        "network": network,
        "scenario_io": scenario_io,
        "simulate": simulate,
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _output_bytes(paths):
    return sum(os.path.getsize(p) for p in paths.values())


def fixture(req):
    mods = _import_package()
    spec = mods["scenario_io"].SyntheticFixtureSpec(**req["spec"])
    mods["scenario_io"].generate_fixture(spec, req["bundle"])
    return {}


def setup(req):
    mods = _import_package()
    import_s = time.perf_counter() - _T0
    start = time.perf_counter()
    mods["scenario_io"].load_bundle(req["bundle"])
    load_s = time.perf_counter() - start
    return {"import_s": import_s, "load_s": load_s, "setup_s": import_s + load_s}


def _versions(mods):
    import multiprocessing

    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_start_method(),
    }


def _run(mods, req, workers=None):
    scenario_io, simulate = mods["scenario_io"], mods["simulate"]
    start = time.perf_counter()
    bundle = scenario_io.load_bundle(req["bundle"])
    load_s = time.perf_counter() - start
    config = bundle.config
    if workers is not None:
        config = scenario_io.override_config(config, workers=workers)
    start = time.perf_counter()
    result = simulate.run_scenario(config, bundle.graph, bundle.bridges, bundle.supplies, bundle.demands)
    run_s = time.perf_counter() - start
    start = time.perf_counter()
    written = scenario_io.write_results(result, bundle, req["out"])
    write_s = time.perf_counter() - start
    return {
        "load_s": load_s,
        "run_s": run_s,
        "write_s": write_s,
        "output_bytes": _output_bytes(written),
        "samples": config.samples,
        "workers": config.workers,
        "demands": len(bundle.demands),
        "horizons": len(config.horizons),
    }


def run(req):
    mods = _import_package()
    import_s = time.perf_counter() - _T0
    out = _run(mods, req)
    out.update(import_s=import_s, setup_s=import_s + out["load_s"], peak_rss_mb=_peak_rss_mb())
    out["versions"] = _versions(mods)
    return out


def trace(req):
    from spans import Tracer

    mods = _import_package()
    import_s = time.perf_counter() - _T0
    tracer = Tracer(mods)
    tracer.install()
    try:
        out = _run(mods, req, workers=req.get("workers"))
    finally:
        restored = tracer.restore()
    out.update(import_s=import_s, setup_s=import_s + out["load_s"], peak_rss_mb=_peak_rss_mb())
    out["layers"] = tracer.summary()
    out["restored"] = restored
    out["missing"] = tracer.missing
    if req.get("spans"):
        with open(req["spans"], "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "counts"], "spans": tracer.spans}, fh)
    return out


MODES = {"fixture": fixture, "setup": setup, "run": run, "trace": trace}


def main():
    req = json.loads(sys.argv[1])
    out = MODES[req["mode"]](req)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
