"""Dataset bundle I/O, deterministic result writers, synthetic fixtures.

A scenario bundle on disk is five data files plus a flat key=value config:

  network.geojson   nodes as Point features, edges as LineString features
  bridges.csv       bridge_id, h_b, mass_ton_per_m, x, y
  surge.csv         x, y, h_st, h_s
  supplies.csv      supply_id, x, y, capacity
  demands.csv       demand_id, x, y, population, then one column per group
  scenario.cfg      storm, crs, datum, thresholds, run parameters

Each CSV's columns are declared once and shared by the reader
(_parse_rows) and the writer (_write_csv); every scenario.cfg key and the
type of its value are declared once in _SETTINGS. Keys a config leaves
out take the ScenarioConfig, ExposureThresholds and SurgeField defaults,
and those classes check the values. Each file is read once, hashed and
decoded as UTF-8, less any leading byte-order mark; a file that is not
UTF-8 text is reported before any parse. Past that, loading collects
every validation failure across all files before raising, so one round
trip reports everything wrong with a bundle. network.geojson decodes
through an object_hook that writes each Feature into node and edge
columns as soon as the decoder finishes it, so neither the JSON tree
(about 5x the file's bytes) nor a record per feature is held; edge ends
bind to nodes once every node is known. Writers emit byte-identical
files for identical results: fixed key order, repr floats, no timestamps.
Every GeoJSON FeatureCollection is written a feature at a time
(_write_features), so neither its feature list nor its text is held
whole. The synthetic county generator builds its grid as node and road
columns and passes them, with the bridge spans, to RoadGraph.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from . import __version__
from .access import DemandSite, SupplySite
from .errors import InvalidInputError, InvalidSpecError, ValidationError
from .fragility import default_table, sha256
from .hazard import ExposureThresholds, SurgeField
from .network import BRIDGE, ROAD, BridgeRecord, Edge, Node, RoadGraph, build_graph, valid_bridges
from .simulate import ScenarioConfig, ScenarioResult

NETWORK_FILE = "network.geojson"
BRIDGES_FILE = "bridges.csv"
SURGE_FILE = "surge.csv"
SUPPLIES_FILE = "supplies.csv"
DEMANDS_FILE = "demands.csv"
CONFIG_FILE = "scenario.cfg"
# The bundle's files, in the order load_bundle reads and hashes them.
BUNDLE_FILES = (NETWORK_FILE, BRIDGES_FILE, SURGE_FILE, SUPPLIES_FILE, DEMANDS_FILE, CONFIG_FILE)

_BRIDGE_COLUMNS = ("bridge_id", "h_b", "mass_ton_per_m", "x", "y")
_SURGE_COLUMNS = ("x", "y", "h_st", "h_s")
_SUPPLY_COLUMNS = ("supply_id", "x", "y", "capacity")
_DEMAND_COLUMNS = ("demand_id", "x", "y", "population")  # then one column per group


def split_horizons(text: str) -> tuple[str, ...]:
    """Horizon names from a comma list such as "short,long"."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


# Every scenario.cfg key with the function that parses its value, in the
# order write_bundle writes them. An empty coverage_radius_m means unset.
_SETTINGS = {
    "storm": str,
    "crs": str,
    "datum": str,
    "d0_minutes": float,
    "samples": int,
    "seed": int,
    "horizons": split_horizons,
    "bridge_close_zc": float,
    "road_close_din": float,
    "workers": int,
    "convergence_window": int,
    "convergence_tolerance": float,
    "coverage_radius_m": float,
}
_EXPECTED = {int: "an integer", float: "a number"}
_THRESHOLD_KEYS = tuple(f.name for f in dataclasses.fields(ExposureThresholds))


@dataclass
class DatasetBundle:
    """A fully validated scenario dataset plus its run configuration."""

    graph: RoadGraph
    supplies: tuple[SupplySite, ...]
    demands: tuple[DemandSite, ...]
    config: ScenarioConfig
    crs: str
    input_hashes: dict[str, str] = field(default_factory=dict)

    @property
    def bridges(self) -> tuple[BridgeRecord, ...]:  # the graph's records, in bridge_ids order
        return tuple(self.graph.bridges.values())


def _floats(rec: Mapping[str, str], names: Iterable[str]) -> list[float]:
    """The named fields of a CSV row as floats; an empty field is missing."""
    out = []
    for name in names:
        raw = rec.get(name)
        if raw is None or raw == "":
            raise ValueError(f"missing {name}")
        out.append(float(raw))
    return out


def _parse_rows(
    source: str,
    texts: dict[str, str],
    required: tuple[str, ...],
    kind: str,
    build: Callable[[dict[str, str]], Any],
    errors: list[str],
    reserved: tuple[str, ...] = (),
) -> list[Any]:
    """build(row) for each row of the CSV texts[source] holding the required
    columns, reporting a missing column or a bad row (short, long or not
    parsed) by file name and line; a reserved column is reported once and
    left out of every row. A missing or repeated column is reported and
    no row of the file is read."""
    out: list[Any] = []
    reader = csv.DictReader(io.StringIO(texts[source], newline=""))
    header = reader.fieldnames or []
    missing = [name for name in required if name not in header]
    repeated = list(dict.fromkeys(name for name in header if header.count(name) > 1))
    for problem, names in (("missing", missing), ("repeated", repeated)):
        if names:
            errors.append(f"{source}: {problem} column(s) {', '.join(names)}")
    if missing or repeated:
        return out
    clash = [name for name in reserved if name in reader.fieldnames]
    errors.extend(f"{source}: column {name} is reserved" for name in clash)
    for lineno, rec in enumerate(reader, start=2):
        for name in clash:
            del rec[name]
        try:
            if None in rec:  # DictReader keeps the fields past the header under None
                raise ValueError(f"{len(rec[None])} field(s) past the header")
            out.append(build(rec))
        except ValueError as exc:
            errors.append(f"{source}:{lineno}: bad {kind} row ({exc})")
    return out


def _bridge_row(rec: dict[str, str]) -> BridgeRecord:
    return BridgeRecord(str(rec["bridge_id"]), *_floats(rec, _BRIDGE_COLUMNS[1:]))


def _supply_row(rec: dict[str, str]) -> SupplySite:
    return SupplySite(str(rec["supply_id"]), *_floats(rec, _SUPPLY_COLUMNS[1:]))


def _demand_row(rec: dict[str, str]) -> DemandSite:
    # Every column past the required ones is a group.
    groups = [name for name in rec if name not in _DEMAND_COLUMNS]
    x, y, population = _floats(rec, _DEMAND_COLUMNS[1:])
    return DemandSite(str(rec["demand_id"]), x, y, population, dict(zip(groups, _floats(rec, groups))))


class _Feature(int):
    """A network.geojson Feature where it sat in the decoded document: its node row r, or ~r for edge row r."""
    __slots__ = ()


_KINDS = {ROAD: ROAD, BRIDGE: BRIDGE}  # one string object per known kind


class _NetworkColumns:
    """network.geojson's features, written into node and edge columns.

    As json.loads' object_hook, it converts each Feature as soon as the
    decoder finishes it and leaves a _Feature in its place, so neither the
    JSON tree nor a record per feature is held. A LineString becomes an edge
    row (id, kind, bridge_id, and as floats the x, y of its first and last
    coordinates, length_m, speed_mps and h_r, nan if absent); anything else
    a node row (a Point's id, x and y). Conversion stops at the first
    failure, kept in failures by _Feature with the edge ends converted before it.
    """

    def __init__(self) -> None:
        self.node_ids, self.edge_ids, self.kinds, self.bridge_of = [], [], [], []
        self.node_xy, self.edge_floats = array("d"), array("d")  # x, y; x0, y0, x1, y1, length_m, speed_mps, h_r
        self.failures: dict[int, tuple[int, str]] = {}

    def __call__(self, obj: dict) -> Any:
        return self.feature(obj) if obj.get("type") == "Feature" and "geometry" in obj else obj

    def feature(self, feat: Any) -> _Feature:
        geom, props = (feat.get("geometry") or {}, feat.get("properties") or {}) if isinstance(feat, dict) else ("", "")
        objects = isinstance(geom, dict) and isinstance(props, dict)
        if objects and geom.get("type") == "LineString":
            return self._edge(geom, props)
        row, node_id, x, y = len(self.node_ids), "", math.nan, math.nan
        if not objects:
            self.failures[row] = (0, "feature, geometry and properties must be JSON objects")
        elif geom.get("type") != "Point":
            self.failures[row] = (0, f"unsupported geometry {geom.get('type')!r}")
        else:
            try:
                x, y = (float(c) for c in geom["coordinates"])
                node_id = str(props["id"])
            except (KeyError, TypeError, ValueError) as exc:
                self.failures[row] = (0, f"bad node ({exc!r})")
        self.node_ids.append(node_id)
        self.node_xy.extend((x, y))
        return _Feature(row)

    def _edge(self, geom: dict, props: dict) -> _Feature:
        row, ends = len(self.edge_ids), []
        try:
            coords = geom.get("coordinates") or []
            if len(coords) < 2:
                raise ValueError("LineString needs at least two coordinates")
            for cx, cy in (coords[0], coords[-1]):
                ends += float(cx), float(cy)
            bridge_id, h_r = props.get("bridge_id"), props.get("h_r")
            edge_id, length_m, speed_mps = str(props["id"]), float(props["length_m"]), float(props["speed_mps"])
            kind, bridge_id = str(props["kind"]), None if bridge_id is None else str(bridge_id)
            h_r = math.nan if h_r is None else float(h_r)
        except (KeyError, TypeError, ValueError) as exc:
            self.failures[~row] = (len(ends) // 2, f"bad edge ({exc})")
            edge_id, kind, bridge_id, length_m, speed_mps, h_r = "", "", None, math.nan, math.nan, math.nan
        self.edge_ids.append(edge_id)
        self.kinds.append(_KINDS.get(kind, kind))
        self.bridge_of.append(bridge_id)
        self.edge_floats.extend(ends + [math.nan] * (4 - len(ends)) + [length_m, speed_mps, h_r])
        return _Feature(~row)


def _node_rows(x: np.ndarray, y: np.ndarray, qx: np.ndarray, qy: np.ndarray) -> np.ndarray:
    """Per query point (qx, qy), the first row of a node at exactly that point, or -1 (nan matches nothing)."""
    points, queries = np.empty(x.size, dtype=complex), np.empty(qx.shape, dtype=complex)
    points.real, points.imag, queries.real, queries.imag = x, y, qx, qy  # complex numbers sort by x, then y
    points, rows = np.unique(points, return_index=True)
    at = np.searchsorted(points, queries)
    return np.where(np.r_[points, np.nan][at] == queries, np.r_[rows, -1][at], -1)


def _parse_network_geojson(source: str, texts: dict[str, str], errors: list[str]) -> tuple | None:
    """network.geojson as RoadGraph's node and edge arguments, or
    None if it is not a FeatureCollection; its text is dropped from texts
    once decoded. A failed feature is reported by its index in the
    collection: the failures that are not edges first, then the edges."""
    columns = _NetworkColumns()
    try:
        doc = json.loads(texts.pop(source), object_hook=columns)
    except json.JSONDecodeError as exc:
        errors.append(f"{source}: not valid JSON ({exc})")
        return None
    features = doc.get("features", []) if isinstance(doc, dict) else None
    if not isinstance(features, list) or doc.get("type") != "FeatureCollection":
        errors.append(f"{source}: expected a GeoJSON FeatureCollection")
        return None
    # An entry the hook left as it was converts now; rows a Feature nested elsewhere wrote are left out.
    number = np.array([f if isinstance(f, _Feature) else columns.feature(f) for f in features], dtype=np.int64)
    del doc, features
    failed = np.isin(number, list(columns.failures))
    errors += [f"{source}: feature {i}: {columns.failures[number[i]][1]}"
               for i in np.flatnonzero(failed & (number >= 0)).tolist()]
    nodes = number[~failed & (number >= 0)]
    node_ids = [columns.node_ids[r] for r in nodes.tolist()]
    x, y = np.frombuffer(columns.node_xy).reshape(-1, 2)[nodes].T
    # Edge ends bind to nodes by exact coordinates, coincident nodes to the lowest id.
    at = np.flatnonzero(number < 0)
    edges = np.frombuffer(columns.edge_floats).reshape(-1, 7)[~number[at]]
    by_id = np.array(sorted(range(len(node_ids)), key=node_ids.__getitem__), dtype=np.int64)
    ends = np.r_[by_id, -1][_node_rows(x[by_id], y[by_id], edges[:, 0:4:2], edges[:, 1:4:2])]
    bad = (ends < 0).any(axis=1) | failed[at]
    for k in np.flatnonzero(bad).tolist():
        converted, failure = columns.failures.get(int(number[at[k]]), (2, ""))
        unknown = next((e for e in range(converted) if ends[k, e] < 0), None)
        if unknown is not None:
            failure = f"bad edge (endpoint {tuple(edges[k, 2 * unknown : 2 * unknown + 2].tolist())} matches no node)"
        errors.append(f"{source}: feature {at[k]}: {failure}")
    rows = (~number[at[~bad]]).tolist()
    return (
        node_ids, x, y, [columns.edge_ids[r] for r in rows], *ends[~bad].T, *edges[~bad, 4:].T,
        [columns.kinds[r] for r in rows], [columns.bridge_of[r] for r in rows],
    )


def parse_config_text(text: str, source: str = CONFIG_FILE) -> tuple[dict[str, str], list[str]]:
    """Parse flat key = value lines; '#' starts a comment."""
    raw: dict[str, str] = {}
    errors: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"{source}:{lineno}: expected key = value")
            continue
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _SETTINGS:
            errors.append(f"{source}:{lineno}: unknown key {key!r}")
            continue
        if key in raw:
            errors.append(f"{source}:{lineno}: duplicate key {key!r}")
            continue
        raw[key] = value
    return raw, errors


def _config_from_raw(
    raw: Mapping[str, str], source: str, texts: dict[str, str], errors: list[str]
) -> tuple[ScenarioConfig | None, str]:
    """Build the run configuration and its surge field, reporting every
    bad value under source, the config file's name; keys the file leaves
    out keep the dataclass defaults."""
    before = len(errors)
    surge_rows = _parse_rows(SURGE_FILE, texts, _SURGE_COLUMNS, "surge", lambda r: _floats(r, _SURGE_COLUMNS), errors)
    for key in ("storm", "crs"):
        if not raw.get(key):
            errors.append(f"{source}: {key} is required")
    settings: dict[str, Any] = {}
    for key, parse in _SETTINGS.items():
        if key not in raw or (key == "coverage_radius_m" and raw[key] == ""):
            continue
        try:
            settings[key] = parse(raw[key])
        except ValueError:
            errors.append(f"{source}: {key} must be {_EXPECTED[parse]}, got {raw[key]!r}")
    crs = settings.pop("crs", "")
    if errors[before:]:
        return None, crs

    blame = SURGE_FILE
    try:
        samples = np.reshape(surge_rows, (-1, len(_SURGE_COLUMNS))).T
        SurgeField(*samples)  # the samples alone; past them, the bad value came from the config file
        blame = source
        surge = SurgeField(*samples, datum_label=settings.pop("datum", "unspecified"),
                           coverage_radius_m=settings.pop("coverage_radius_m", None))
        thresholds = ExposureThresholds(**{k: settings.pop(k) for k in _THRESHOLD_KEYS if k in settings})
        config = ScenarioConfig(surge=surge, thresholds=thresholds, **settings)
    except InvalidInputError as exc:
        errors.append(f"{blame}: {exc}")
        return None, crs
    return config, crs


def load_bundle(directory: str | Path, config: str | Path | None = None) -> DatasetBundle:
    """Load and validate the scenario bundle in directory, taking the run
    configuration from the file config in place of its scenario.cfg if given.

    Each file is read once, before any is parsed, and hashed from the bytes
    parsed; the hash and any error take the name of the file read, so a
    config named like one of the bundle's data files is refused. A missing
    file raises FileNotFoundError. A file that is not UTF-8 text is reported
    before any file is parsed; past that, anything wrong with the content is
    collected into one ValidationError listing every failure.
    """
    paths = [Path(directory) / name for name in BUNDLE_FILES]
    if config is not None:
        paths[-1] = Path(config)
        if paths[-1].name in BUNDLE_FILES[:-1]:
            raise ValidationError([f"config {config}: takes the name of the bundle data file {paths[-1].name}"])
    hashes: dict[str, str] = {}
    texts: dict[str, str] = {}  # by bundle file name
    errors: list[str] = []
    for name, path in zip(BUNDLE_FILES, paths):
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise FileNotFoundError(f"missing input file: {path}") from None
        hashes[path.name] = sha256(data).hexdigest()
        try:
            texts[name] = data.decode("utf-8-sig")  # a byte-order mark, as spreadsheets write, is not content
        except UnicodeDecodeError as exc:
            errors.append(f"{path.name}: not UTF-8 text ({exc})")
    if errors:
        raise ValidationError(errors)

    network = _parse_network_geojson(NETWORK_FILE, texts, errors)
    bridges = _parse_rows(BRIDGES_FILE, texts, _BRIDGE_COLUMNS, "bridge", _bridge_row, errors)
    supplies = _parse_rows(SUPPLIES_FILE, texts, _SUPPLY_COLUMNS, "supply", _supply_row, errors)
    # "overall" is the whole population's group_summary.csv row, so no subgroup column may take that name.
    demands = _parse_rows(DEMANDS_FILE, texts, _DEMAND_COLUMNS, "demand", _demand_row, errors, reserved=("overall",))
    raw_config, cfg_errors = parse_config_text(texts[CONFIG_FILE], paths[-1].name)
    errors.extend(cfg_errors)

    graph: RoadGraph | None = None
    try:
        graph = RoadGraph(*network, bridges) if network else None
    except ValidationError as exc:
        errors.extend(exc.errors)
    if network is None:  # its parse failure is reported alone, not again as an empty network's
        valid_bridges(bridges, errors)

    for name, kind, ids, empty in (
        (SUPPLIES_FILE, "supply", [s.supply_id for s in supplies], "no supply sites"),
        (DEMANDS_FILE, "demand", [d.demand_id for d in demands], "no demand locations"),
    ):
        seen: set[str] = set()
        for site_id in ids:
            if site_id in seen:
                errors.append(f"{name}: duplicate {kind} id {site_id}")
            seen.add(site_id)
        if not ids and not any(e.startswith(f"{name}:") for e in errors):  # a bad column or row was reported
            errors.append(f"{name}: {empty}")

    scenario, crs = _config_from_raw(raw_config, paths[-1].name, texts, errors)
    if errors:
        raise ValidationError(errors)
    assert graph is not None and scenario is not None

    return DatasetBundle(graph, tuple(supplies), tuple(demands), scenario, crs, input_hashes=hashes)


def _write_features(path: Path, features: Iterable[dict]) -> None:
    """Write a GeoJSON FeatureCollection one feature at a time, in the bytes
    json.dumps(collection, indent=2) + "\n" gives; JSON text holds no raw
    newline, so each feature's lines indent as a whole."""
    with open(path, "w") as fh:
        fh.write('{\n  "type": "FeatureCollection",\n  "features": [')
        lead = "\n    "
        for feature in features:
            fh.write(lead + json.dumps(feature, indent=2).replace("\n", "\n    "))
            lead = ",\n    "
        fh.write("]\n}\n" if lead == "\n    " else "\n  ]\n}\n")


def _write_csv(path: Path, header: Iterable[str], rows: Iterable[Iterable[Any]]) -> None:
    """Write a CSV with Unix line ends; csv writes floats as their repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_results(result: ScenarioResult, bundle: DatasetBundle, out_dir: str | Path) -> dict[str, Path]:
    """Write per-demand GeoJSON per horizon, a group summary CSV and a
    manifest. Output bytes depend only on the result and bundle."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    demand_xy = {d.demand_id: [d.x, d.y] for d in bundle.demands}
    written: dict[str, Path] = {}

    for horizon, hres in result.horizons.items():
        path = out / f"results_{horizon}.geojson"
        _write_features(path, (
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": demand_xy[demand_id]},
                "properties": {
                    "demand_id": demand_id,
                    "mean_score": float(hres.mean_scores[pos]),
                    "cov": float(hres.cov[pos]),
                    "quartile": hres.quartiles[demand_id],
                    "horizon": horizon,
                    "storm": result.storm,
                },
            }
            for pos, demand_id in enumerate(hres.demand_ids)
        ))
        written[f"results_{horizon}"] = path

    summary_path = out / "group_summary.csv"
    _write_csv(
        summary_path,
        ["storm", "horizon", "group", "weight", "average_score"],
        (
            [result.storm, horizon, name, result.group_weights[name], average]
            for horizon, hres in result.horizons.items()
            for name, average in hres.group_averages.items()
        ),
    )
    written["group_summary"] = summary_path

    manifest = {
        "storm": result.storm,
        "seed": result.seed,
        "samples": result.samples,
        "d0_minutes": result.d0_minutes,
        "horizons": list(result.horizons),
        "thresholds": vars(bundle.config.thresholds),
        "crs": bundle.crs,
        "datum": bundle.config.surge.datum_label,
        "package_version": __version__,
        "fragility_checksum": result.fragility_checksum,
        "inputs": dict(sorted(bundle.input_hashes.items())),
        "summary": {
            horizon: {
                "average_score": hres.group_averages["overall"],
                "average_cov": hres.average_cov,
                "no_access_fraction": hres.no_access_fraction,
                "converged_at": hres.converged_at,
            }
            for horizon, hres in result.horizons.items()
        },
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    written["manifest"] = manifest_path
    return written


def read_results(out_dir: str | Path) -> dict[str, Any]:
    """Read back files written by write_results for reporting."""
    out = Path(out_dir)
    manifest = json.loads((out / "manifest.json").read_text())
    horizons: dict[str, dict[str, dict[str, Any]]] = {}
    for horizon in manifest["horizons"]:
        doc = json.loads((out / f"results_{horizon}.geojson").read_text())
        horizons[horizon] = {
            f["properties"]["demand_id"]: f["properties"] for f in doc["features"]
        }
    with open(out / "group_summary.csv", newline="") as fh:
        groups = list(csv.DictReader(fh))
    return {"manifest": manifest, "horizons": horizons, "groups": groups}


def write_bundle(bundle: DatasetBundle, out_dir: str | Path) -> Path:
    """Write a bundle's input files and return out_dir; load_bundle(out_dir) round-trips it, or raise before writing."""
    cfg, surge = bundle.config, bundle.config.surge
    held = {**vars(cfg), **vars(cfg.thresholds), "crs": bundle.crs, "datum": surge.datum_label,
            "horizons": ",".join(cfg.horizons), "coverage_radius_m": surge.coverage_radius_m}
    written = {key: str(held[key]) for key in _SETTINGS if held[key] is not None}
    config_text = "".join(f"{key} = {value}\n" for key, value in written.items())
    loaded = parse_config_text(config_text)[0]
    if bad := [f"{key} = {value!r}" for key, value in written.items() if loaded.get(key) != value]:
        raise InvalidInputError(f"{CONFIG_FILE}: {', '.join(bad)} would not load back as written")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    graph = bundle.graph

    xy = np.column_stack([graph.node_x, graph.node_y]).tolist()
    nodes = ({"type": "Feature", "geometry": {"type": "Point", "coordinates": at}, "properties": {"id": nid}}
             for nid, at in zip(graph.node_ids, xy))
    edges = ({"type": "Feature", "geometry": {"type": "LineString", "coordinates": [xy[u], xy[v]]},
              "properties": dict(zip(("id", "length_m", "speed_mps", "kind", "bridge_id", "h_r"), (eid, *rest)))}
             for eid, u, v, *rest in graph.edge_rows())
    _write_features(out / NETWORK_FILE, itertools.chain(nodes, edges))

    _write_csv(out / BRIDGES_FILE, _BRIDGE_COLUMNS, map(dataclasses.astuple, bundle.bridges))
    _write_csv(out / SURGE_FILE, _SURGE_COLUMNS, np.column_stack([surge.x, surge.y, surge.h_st, surge.h_s]).tolist())
    _write_csv(out / SUPPLIES_FILE, _SUPPLY_COLUMNS, ([s.supply_id, s.x, s.y, s.capacity] for s in bundle.supplies))
    groups = sorted({name for d in bundle.demands for name in d.subgroups})
    _write_csv(
        out / DEMANDS_FILE,
        [*_DEMAND_COLUMNS, *groups],
        ([d.demand_id, d.x, d.y, d.population, *(float(d.subgroups.get(g, 0.0)) for g in groups)]
         for d in bundle.demands),
    )
    (out / CONFIG_FILE).write_text(config_text)
    return out


@dataclass(frozen=True)
class SyntheticFixtureSpec:
    """Parameters for the synthetic coastal-county fixture.

    The county is a road grid split by an east-west channel; the only
    ways across are bridges. Surge decays linearly away from the channel
    while ground rises, so flooding forms a band around it. Supplies
    cluster southeast and southwest with a scattered remainder north.
    """

    seed: int = 42
    grid_width: int = 89
    grid_height: int = 23
    spacing_m: float = 300.0
    bridge_count: int = 88
    spans_per_corridor: int = 11
    demand_count: int = 121
    supply_count: int = 1021
    storm: str = "storm-1-like"
    surge_peak_m: float | None = None
    surge_decay_m: float | None = None
    d0_minutes: float = 50.0
    samples: int = 1000
    scenario_seed: int = 42
    workers: int = 1

# Fixture significant wave height per metre of storm tide, and the range of bridge deck elevations (m).
_WAVE_RATIO = 0.2
_DECK_RANGE_M = (5.0, 11.5)

# Built-in storm intensities: (peak storm tide m, decay distance m).
_STORM_PRESETS = {
    "storm-1-like": (6.5, 9000.0),
    "storm-2-like": (7.8, 13000.0),
}


def _fixture_params(spec: SyntheticFixtureSpec) -> tuple[float, float, int]:
    if spec.grid_width < 2 or spec.grid_height < 4:
        raise InvalidSpecError("grid must be at least 2 x 4")
    if spec.spacing_m <= 0 or not math.isfinite(spec.spacing_m):
        raise InvalidSpecError(f"spacing must be finite and > 0, got {spec.spacing_m}")
    if spec.bridge_count < 1:
        raise InvalidSpecError(f"bridge count must be >= 1, got {spec.bridge_count}")
    if spec.spans_per_corridor < 1:
        raise InvalidSpecError(f"spans per corridor must be >= 1, got {spec.spans_per_corridor}")
    corridors = -(-spec.bridge_count // spec.spans_per_corridor)
    if corridors > spec.grid_width:
        raise InvalidSpecError(
            f"{corridors} crossing corridors do not fit a grid {spec.grid_width} wide"
        )
    counts = (("demand count", spec.demand_count), ("supply count", spec.supply_count), ("samples", spec.samples))
    for name, count in counts:
        if count < 1:
            raise InvalidSpecError(f"{name} must be >= 1, got {count}")
    peak, decay = _STORM_PRESETS.get(spec.storm, (spec.surge_peak_m, spec.surge_decay_m))
    if spec.surge_peak_m is not None:
        peak = spec.surge_peak_m
    if spec.surge_decay_m is not None:
        decay = spec.surge_decay_m
    if peak is None or decay is None:
        raise InvalidSpecError(
            f"storm {spec.storm!r} has no preset; set surge_peak_m and surge_decay_m"
        )
    if peak < 0 or decay <= 0:
        raise InvalidSpecError(f"surge peak must be >= 0 and decay > 0, got {peak}, {decay}")
    return float(peak), float(decay), corridors


def generate_fixture(spec: SyntheticFixtureSpec, out_dir: str | Path) -> Path:
    """Write a complete synthetic bundle and return its directory.

    Deterministic for a given spec. The generated bundle always passes
    load_bundle validation, and with no surge (surge_peak_m = 0) no edge
    closes and no bridge can fail.
    """
    peak, decay, corridors = _fixture_params(spec)
    rng = np.random.default_rng(spec.seed)
    gw, gh, sp = spec.grid_width, spec.grid_height, spec.spacing_m
    width, height = (gw - 1) * sp, (gh - 1) * sp
    channel_row = (gh - 1) // 2  # channel sits between this row and the next
    y_channel = (channel_row + 0.5) * sp

    # nodes and edges hold RoadGraph's node and edge columns; grid node (i, j) is node row i * gh + j.
    # Bank rows run on causeways; elsewhere ground rises away from the channel, so flooding hugs the
    # inlet. One sized draw gives each node's elevation noise, in node row order, then one each road's
    # speed: the eh roads east, row j by row j, then the ev roads north, column i by column i. A sized
    # draw yields the numbers of as many scalar draws, in order; each value is rounded by Python's round().
    node_i, node_j = np.divmod(np.arange(gw * gh), gh)
    nodes = [[f"n{i:03d}_{j:03d}" for i, j in zip(node_i.tolist(), node_j.tolist())],
             (node_i * sp).tolist(), (node_j * sp).tolist()]
    dist = np.abs(node_j * sp - y_channel)
    ground = np.where(dist <= sp / 2.0, 2.8, 0.3 + 0.0024 * (dist - sp / 2.0)) + rng.uniform(0.0, 0.3, gw * gh)
    elev = np.array([round(e, 3) for e in ground.tolist()])
    eh_j, eh_i = np.divmod(np.arange(gh * (gw - 1)), gw - 1)
    ev_i, ev_j = np.divmod(np.arange(gw * (gh - 1)), gh - 1)
    ev_i, ev_j = ev_i[ev_j != channel_row], ev_j[ev_j != channel_row]  # only corridors cross the channel
    road_ids = [f"eh{i:03d}_{j:03d}" for i, j in zip(eh_i.tolist(), eh_j.tolist())]
    road_ids += [f"ev{i:03d}_{j:03d}" for i, j in zip(ev_i.tolist(), ev_j.tolist())]
    u, v = np.r_[eh_i * gh + eh_j, ev_i * gh + ev_j], np.r_[(eh_i + 1) * gh + eh_j, ev_i * gh + ev_j + 1]
    speeds = [round(s, 2) for s in rng.uniform(2.5, 6.0, u.size).tolist()]
    h_r = np.minimum(elev[u], elev[v]).tolist()
    edges = [road_ids, u.tolist(), v.tolist(), [sp] * u.size, speeds, h_r, [ROAD] * u.size, [None] * u.size]

    # The channel is crossed by a few multi-span corridors. Every span is
    # its own bridge, chained over pier nodes, so one span failure severs
    # the whole corridor and traffic detours to the next one. Each corridor
    # draws its deck, then each span's mass.
    cols = np.round(np.linspace(0, gw - 1, corridors + 2)).astype(int)[1:-1]
    if len(set(cols.tolist())) < corridors:  # corridors <= gw, so these columns are at least 1 apart
        cols = np.round(np.linspace(0, gw - 1, corridors)).astype(int)
    corridor_cols = sorted(cols.tolist())

    bridges: list[BridgeRecord] = []
    band_centers = (2.5, 7.5, 12.5, 17.5, 22.5, 27.5, 32.5)
    deck_pattern = (0.05, 0.10, 0.18, 0.9, 0.12, 0.55, 0.14, 0.95)
    deck_lo, deck_hi = _DECK_RANGE_M
    y0, remaining = channel_row * sp, spec.bridge_count
    for c, i in enumerate(corridor_cols):
        spans = min(spec.spans_per_corridor, remaining)
        remaining -= spans
        deck = deck_lo + deck_pattern[c % len(deck_pattern)] * (deck_hi - deck_lo) + rng.uniform(-0.2, 0.2)
        deck = min(max(deck, deck_lo), deck_hi)
        chain = [i * gh + channel_row, *range(len(nodes[0]), len(nodes[0]) + spans - 1), i * gh + channel_row + 1]
        for k in range(spans - 1):
            for column, value in zip(nodes, (f"p{i:03d}_{k:02d}", i * sp, y0 + (k + 1) * sp / spans)):
                column.append(value)
        for k in range(spans):
            bridge_id = f"b{i:03d}_{k:02d}"
            mass = band_centers[len(bridges) % len(band_centers)] + rng.uniform(-2.0, 2.0)
            bridges.append(BridgeRecord(bridge_id, deck_elevation_m=round(deck, 3), mass_ton_per_m=round(mass, 3),
                                        x=i * sp, y=y0 + (k + 0.5) * sp / spans))
            # Corridors are highway crossings at 5 m/s; roads vary instead.
            span = (f"ev{i:03d}_{channel_row:03d}s{k:02d}", chain[k], chain[k + 1], sp / spans, 5.0, math.nan,
                    BRIDGE, bridge_id)
            for column, value in zip(edges, span):
                column.append(value)

    graph = RoadGraph(*nodes, *edges, bridges)
    del nodes, edges, road_ids, speeds, h_r  # the graph holds its own columns; free these before write_bundle

    # Surge decays with distance from an inlet at the channel's midpoint,
    # so flooding forms an ellipse-ish patch instead of severing the whole
    # channel. Samples cover the channel centerline, then every node.
    x_inlet = width / 2.0
    points = [(i * sp, y_channel) for i in range(gw)] + [(i * sp, j * sp) for i in range(gw) for j in range(gh)]
    s_st = [round(peak * max(0.0, 1.0 - math.hypot(x - x_inlet, y - y_channel) / decay), 4) for x, y in points]
    s_s = [round(_WAVE_RATIO * h, 4) for h in s_st]
    surge = SurgeField(*zip(*points), s_st, s_s, datum_label="fixture-datum")

    side = math.ceil(math.sqrt(spec.demand_count))
    demands: list[DemandSite] = []
    for k in range(spec.demand_count):
        row, col = divmod(k, side)
        x = (col + 0.5) / side * width + rng.uniform(-0.3, 0.3) * sp
        y = (row + 0.5) / side * height + rng.uniform(-0.3, 0.3) * sp
        pop = int(rng.integers(300, 3000))
        below = int(round(pop * rng.uniform(0.05, 0.35)))
        demands.append(
            DemandSite(
                demand_id=f"d{k:03d}",
                x=round(min(max(x, 0.0), width), 2),
                y=round(min(max(y, 0.0), height), 2),
                population=float(pop),
                subgroups={
                    "age65plus": float(int(round(pop * rng.uniform(0.08, 0.30)))),
                    "below_poverty": float(below),
                    "above_poverty": float(pop - below),
                },
            )
        )

    n_se = int(round(0.6 * spec.supply_count))
    n_sw = int(round(0.3 * spec.supply_count))
    n_strip = spec.supply_count - n_se - n_sw
    supplies: list[SupplySite] = []

    def add_supply(x: float, y: float) -> None:
        k = len(supplies)
        capacity = float(int(round(math.exp(rng.uniform(math.log(2.0), math.log(400.0))))))
        supplies.append(
            SupplySite(
                supply_id=f"s{k:04d}",
                x=round(min(max(x, 0.0), width), 2),
                y=round(min(max(y, 0.0), height), 2),
                capacity=capacity,
            )
        )

    # Two dense clusters plus a thin strip along the south bank. All
    # supply sits south of the channel, so the north side depends on the
    # crossing corridors.
    for _ in range(n_se):
        add_supply(rng.normal(0.75 * width, 1200.0), rng.normal(0.22 * height, 700.0))
    for _ in range(n_sw):
        add_supply(rng.normal(0.18 * width, 1000.0), rng.normal(0.20 * height, 700.0))
    for _ in range(max(n_strip, 0)):
        add_supply(rng.uniform(0.05 * width, 0.95 * width), rng.uniform(0.33 * height, 0.45 * height))

    config = ScenarioConfig(
        storm=spec.storm,
        surge=surge,
        d0_minutes=spec.d0_minutes,
        samples=spec.samples,
        seed=spec.scenario_seed,
        workers=spec.workers,
    )
    return write_bundle(DatasetBundle(graph, tuple(supplies), tuple(demands), config, "local-meters"), out_dir)


def generate_twin_town(p_fail: float = 0.5, samples: int = 1000, seed: int = 7) -> DatasetBundle:
    """A four-node town whose access has exactly two outcomes.

    All demand sits west of a single bridge, all supply east, and the
    supply side holds no reachable alternative, so each sample scores
    either the fully open value or zero. The bridge's deck elevation is
    back-solved so its failure probability equals p_fail. Useful as a
    closed-form oracle for the Monte Carlo estimate.
    """
    if not 0.0 <= p_fail <= 0.7:
        raise InvalidSpecError(f"p_fail must be in [0, 0.7], got {p_fail}")
    h_st = 1.0
    # Lightest mass band, no waves: p = a + c * z_c, so z_c = (a - p) / -c.
    if p_fail == 0.0:
        z_c = 6.0  # far above water: the affine form goes negative, clamps to 0
    else:
        row = default_table().rows[0]
        z_c = (row.a - p_fail) / -row.c
    nodes = [Node(f"n{name}", 600.0 * i, 0.0) for i, name in enumerate("abcd")]
    edges = [
        Edge("e-ab", "na", "nb", 600.0, 10.0, ROAD, h_r=5.0),
        Edge("e-bc", "nb", "nc", 600.0, 10.0, BRIDGE, bridge_id="b-main"),
        Edge("e-cd", "nc", "nd", 600.0, 10.0, ROAD, h_r=5.0),
    ]
    bridges = [BridgeRecord("b-main", deck_elevation_m=h_st + z_c, mass_ton_per_m=2.0, x=900.0, y=0.0)]
    graph = build_graph(nodes, edges, bridges)
    surge = SurgeField([900.0], [0.0], [h_st], [0.0], datum_label="twin-datum")
    supplies = (
        SupplySite("s1", 1800.0, 10.0, 10.0),
        SupplySite("s2", 1800.0, -10.0, 20.0),
    )
    demands = (
        DemandSite("d1", 0.0, 10.0, 100.0),
        DemandSite("d2", 0.0, -10.0, 200.0),
    )
    config = ScenarioConfig(storm="twin", surge=surge, samples=samples, seed=seed)
    return DatasetBundle(graph, supplies, demands, config, "local-meters")


def override_config(config: ScenarioConfig, **overrides: Any) -> ScenarioConfig:
    """Apply non-None overrides on top of a loaded configuration."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    return dataclasses.replace(config, **changes) if changes else config
