"""Command-line interface.

Subcommands: validate a bundle, run a scenario, generate a synthetic
fixture, and compare two result directories. Exit codes separate the
failure families: 0 success, 2 usage (argparse), 3 validation failure,
4 runtime/domain failure, 5 file I/O failure. The run flags --samples,
--seed, --d0, --horizons and --workers override the matching config
values; the other config keys have no flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import __version__
from .access import QUARTILE_LABELS
from .errors import SurgeAccessError, ValidationError
from .fragility import default_table
from .network import HORIZONS
from .scenario_io import (
    BUNDLE_FILES,
    SyntheticFixtureSpec,
    _write_csv,
    generate_fixture,
    load_bundle,
    override_config,
    read_results,
    split_horizons,
    write_results,
)
from .simulate import run_scenario

EXIT_OK = 0
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4
EXIT_IO = 5


def _cmd_validate(args: argparse.Namespace) -> int:
    bundle = load_bundle(args.data, args.config)
    graph = bundle.graph
    print(f"bundle ok: {args.data}")
    print(
        f"  nodes={len(graph.node_ids)} edges={len(graph.edge_ids)} bridges={len(graph.bridge_ids)}"
        f" components={graph.component_count}"
    )
    print(f"  supplies={len(bundle.supplies)} demands={len(bundle.demands)} surge_samples={len(bundle.config.surge)}")
    print(f"  storm={bundle.config.storm} crs={bundle.crs} datum={bundle.config.surge.datum_label}")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    bundle = load_bundle(args.data, args.config)
    config = override_config(
        bundle.config,
        samples=args.samples,
        seed=args.seed,
        d0_minutes=args.d0,
        horizons=args.horizons,
        workers=args.workers,
    )
    result = run_scenario(config, bundle.graph, bundle.bridges, bundle.supplies, bundle.demands)
    written = write_results(result, bundle, args.out)
    print(
        f"storm={result.storm} seed={result.seed} samples={result.samples}"
        f" d0={result.d0_minutes} workers={config.workers}"
    )
    print(f"{'horizon':<8} {'avg_score':>10} {'avg_cov':>8} {'no_access':>9} {'converged_at':>12}")
    for horizon, hres in result.horizons.items():
        converged = hres.converged_at if hres.converged_at is not None else "-"
        print(
            f"{horizon:<8} {hres.group_averages['overall']:>10.4f} {hres.average_cov:>8.4f}"
            f" {hres.no_access_fraction:>9.4f} {converged:>12}"
        )
    print(f"wrote {len(written)} file(s) to {Path(args.out)}")
    window = f"window {config.convergence_window}, tolerance {config.convergence_tolerance}"
    for horizon in (h for h, hres in result.horizons.items() if hres.converged_at is None):
        print(f"warning: horizon {horizon} did not converge in {result.samples} samples ({window})", file=sys.stderr)
    return EXIT_OK


def _cmd_fixture(args: argparse.Namespace) -> int:
    # Flags left out keep the SyntheticFixtureSpec defaults.
    given = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(SyntheticFixtureSpec)}
    if args.grid is not None:
        try:
            given["grid_width"], given["grid_height"] = (int(part) for part in args.grid.lower().split("x"))
        except ValueError:
            print(f"error: --grid expects WIDTHxHEIGHT, got {args.grid!r}", file=sys.stderr)
            return EXIT_RUNTIME
    spec = SyntheticFixtureSpec(**{k: v for k, v in given.items() if v is not None})
    generate_fixture(spec, args.out)
    print(f"fixture written to {Path(args.out)} ({len(BUNDLE_FILES)} files)")
    return EXIT_OK


_QUARTILE_ORDER = {label: rank for rank, label in enumerate(QUARTILE_LABELS)}
_REPORT_COLUMNS = ("demand_id", "horizon", "base_mean", "other_mean", "delta", "base_quartile", "other_quartile")


def _cmd_report(args: argparse.Namespace) -> int:
    rows: list[list[object]] = []
    try:
        base = read_results(args.base)
        other = read_results(args.other)
        lines = [
            f"base:  {base['manifest']['storm']} ({args.base})",
            f"other: {other['manifest']['storm']} ({args.other})",
        ]
        for horizon in [h for h in base["horizons"] if h in other["horizons"]]:
            b_sum = base["manifest"]["summary"][horizon]
            o_sum = other["manifest"]["summary"][horizon]
            drops = 0
            for demand_id, props in base["horizons"][horizon].items():
                o_props = other["horizons"][horizon].get(demand_id)
                if o_props is None:
                    continue
                b_quartile, o_quartile = props["quartile"], o_props["quartile"]
                if _QUARTILE_ORDER[o_quartile] < _QUARTILE_ORDER[b_quartile]:
                    drops += 1
                b_mean, o_mean = props["mean_score"], o_props["mean_score"]
                rows.append([demand_id, horizon, b_mean, o_mean, o_mean - b_mean, b_quartile, o_quartile])
            lines += [
                f"[{horizon}]",
                *(f"  caution: {label} did not converge in {res['manifest']['samples']} samples"
                  for label, res in (("base", base), ("other", other))
                  if res["manifest"]["summary"][horizon]["converged_at"] is None),
                f"  avg_score {b_sum['average_score']:.4f} -> {o_sum['average_score']:.4f}",
                f"  no_access {b_sum['no_access_fraction']:.4f} -> {o_sum['no_access_fraction']:.4f}",
                f"  quartile drops: {drops}",
            ]

        # Within-run horizon contrast. Flagged, not hidden: demands with no
        # access at all pull these averages in ways a plain difference hides.
        for label, res in (("base", base), ("other", other)):
            summary = res["manifest"]["summary"]
            if all(h in summary for h in HORIZONS):
                delta = summary[HORIZONS[1]]["average_score"] - summary[HORIZONS[0]]["average_score"]
                lines.append(
                    f"{label} {HORIZONS[1]}-vs-{HORIZONS[0]} avg_score delta: {delta:.4f}"
                    " [caution: cross-horizon deltas are biased where access drops to zero]"
                )
    except (KeyError, TypeError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: malformed results directory ({exc})", file=sys.stderr)
        return EXIT_RUNTIME
    print("\n".join(lines))

    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_csv(out, _REPORT_COLUMNS, rows)
        print(f"wrote per-demand deltas to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # Raw text: the version line must not wrap, and the description keeps its own line breaks.
    parser = argparse.ArgumentParser(
        prog="surgeaccess", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"surgeaccess {__version__} fragility-table {default_table().checksum()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a scenario bundle")
    p_validate.add_argument("--data", required=True, help="bundle directory")
    p_validate.add_argument("--config", help="alternate config file")
    p_validate.set_defaults(func=_cmd_validate)

    p_run = sub.add_parser("run", help="run a Monte Carlo scenario")
    p_run.add_argument("--data", required=True, help="bundle directory")
    p_run.add_argument("--config", help="alternate config file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--samples", type=int, help="Monte Carlo sample count")
    p_run.add_argument("--seed", type=int, help="master random seed")
    p_run.add_argument("--d0", type=float, help="catchment radius in minutes")
    p_run.add_argument("--horizons", type=split_horizons, help="comma list, e.g. short,long")
    p_run.add_argument("--workers", type=int, help="parallel workers for network evaluation")
    p_run.set_defaults(func=_cmd_run)

    p_fixture = sub.add_parser("fixture", help="generate a synthetic bundle")
    p_fixture.add_argument("--out", required=True, help="output directory")
    p_fixture.add_argument("--storm", help="storm preset or custom label")
    p_fixture.add_argument("--seed", type=int)
    p_fixture.add_argument("--grid", help="grid size as WIDTHxHEIGHT")
    p_fixture.add_argument("--spacing", dest="spacing_m", type=float, help="grid spacing in meters")
    p_fixture.add_argument("--bridges", dest="bridge_count", type=int)
    p_fixture.add_argument("--demands", dest="demand_count", type=int)
    p_fixture.add_argument("--supplies", dest="supply_count", type=int)
    p_fixture.add_argument("--samples", type=int)
    p_fixture.add_argument("--d0", dest="d0_minutes", type=float)
    p_fixture.add_argument("--peak", dest="surge_peak_m", type=float, help="peak storm tide (m) for custom storms")
    p_fixture.add_argument(
        "--decay", dest="surge_decay_m", type=float, help="surge decay distance (m) for custom storms"
    )
    p_fixture.set_defaults(func=_cmd_fixture)

    p_report = sub.add_parser("report", help="compare two result directories")
    p_report.add_argument("base", help="baseline results directory")
    p_report.add_argument("other", help="comparison results directory")
    p_report.add_argument("--out", help="write per-demand deltas to this CSV")
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation failed ({len(exc.errors)} error(s)):", file=sys.stderr)
        for message in exc.errors:
            print(f"  - {message}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SurgeAccessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
