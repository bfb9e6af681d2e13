"""Bundle loading, deterministic writers, synthetic fixture generation."""

from __future__ import annotations

import builtins
import dataclasses
import gc
import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest

from surgeaccess import access, fragility, hazard, network, scenario_io, simulate
from surgeaccess.errors import InvalidInputError, InvalidSpecError, ValidationError


def file_hashes(paths):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def surge_columns(field):
    """A surge field by value: its four columns, datum label and coverage radius (SurgeField has no ==)."""
    return [c.tolist() for c in (field.x, field.y, field.h_st, field.h_s)], field.datum_label, field.coverage_radius_m


def assert_same_config(a, b):
    """Two ScenarioConfigs agree field by field, their surge fields by surge_columns."""
    assert surge_columns(a.surge) == surge_columns(b.surge)
    assert dataclasses.replace(a, surge=None) == dataclasses.replace(b, surge=None)


def small_spec(**kw):
    base = dict(
        grid_width=24, grid_height=8, bridge_count=12, spans_per_corridor=4,
        demand_count=16, supply_count=40, samples=60,
    )
    base.update(kw)
    return scenario_io.SyntheticFixtureSpec(**base)


@pytest.fixture()
def twin_dir(tmp_path):
    bundle = scenario_io.generate_twin_town(p_fail=0.5, samples=50)
    scenario_io.write_bundle(bundle, tmp_path / "twin")
    return tmp_path / "twin"


@pytest.fixture()
def small_dir(tmp_path):
    paths = scenario_io.generate_fixture(small_spec(), tmp_path / "small")
    paths.config.write_text(paths.config.read_text() + "coverage_radius_m = 2500.0\n")
    return tmp_path / "small"


def test_default_fixture_scale(default_bundle):
    b = default_bundle
    assert len(b.bridges) == 88
    assert len(b.demands) == 121
    assert len(b.supplies) == 1021
    assert len(b.graph.node_ids) == 2127
    assert 3500 <= len(b.graph.edges) <= 4500
    assert b.graph.component_count == 1
    assert b.config.storm == "storm-1-like"
    assert b.config.samples == 1000 and b.config.seed == 42
    assert b.config.d0_minutes == 50.0
    assert sorted({g for d in b.demands for g in d.subgroups}) == [
        "above_poverty", "age65plus", "below_poverty",
    ]


def test_fixture_generation_is_byte_deterministic(tmp_path):
    a = scenario_io.generate_fixture(small_spec(), tmp_path / "a")
    b = scenario_io.generate_fixture(small_spec(), tmp_path / "b")
    assert file_hashes(a.all_files()) == file_hashes(b.all_files())
    c = scenario_io.generate_fixture(small_spec(seed=43), tmp_path / "c")
    assert file_hashes(c.all_files()) != file_hashes(a.all_files())


# sha256 of every generated file for three small specs: a partial last corridor, corridors that take
# every column (the cols fallback), and no surge. The manifest's input hashes pin the default bundles.
SMALL_SPEC_DIGESTS = [
    (dict(grid_width=12, grid_height=6, bridge_count=7, spans_per_corridor=3, demand_count=9, supply_count=20), {
        "network.geojson": "25b14237dacefedf2c06fb50b222b93110bc803a140f131723fe1cfc52cec2aa",
        "bridges.csv": "5a8883d6558df642caf79f2ec59f78d6fe5f0b71c5dbdab57a05c9fa93b9cfe3",
        "surge.csv": "56ae5fedc8e6ddb13c3852f5fc412c28f5abaedd87a41d0a714b74dfd58510df",
        "supplies.csv": "0955fdb4cd1f38f3d9594ed81cf4396b09921abf9738da471e3742e2fd1a1266",
        "demands.csv": "a3e307e06a0fb336b4179cff0eb50d6f9f6767f44186593dbdbb10541420c553",
        "scenario.cfg": "34c79c891f32faafa96da7851fb6deeb8f918fc4e29a20a655fc21083c6f67b3",
    }),
    (dict(grid_width=5, grid_height=4, bridge_count=5, spans_per_corridor=1, demand_count=3, supply_count=4), {
        "network.geojson": "b2f30968f35ceba1bb8e34b2429c76bc9aed6dfa79ea7957a713e86630e792d8",
        "bridges.csv": "5232888b054140593c70321ad995d1644b1c25722b84112f560b54ddfe6bb8fc",
        "surge.csv": "89493bb2423e50013a1d32ca1e7c7984c6ba8c69aee490e3095fac3643f25c16",
        "supplies.csv": "b98f8251e67beb25a24d91735942c272f146c2a672dad86695b8429e0d3973b8",
        "demands.csv": "d882e49b4b4baa174f966bbcbaa883d2c49ae2199a6dea6b2e93bab20bf4bd92",
        "scenario.cfg": "34c79c891f32faafa96da7851fb6deeb8f918fc4e29a20a655fc21083c6f67b3",
    }),
    (dict(surge_peak_m=0.0), {
        "network.geojson": "1a796dd4a0478b72b07345a918257c91a405842004bd5ef58b817553fd3a8b44",
        "bridges.csv": "833d9c6b4f640afc6f0298610cbf40962bb4d12a2214e02a44bd0d5b9e21fa59",
        "surge.csv": "0a106b34c9501ddf5a989400f56b4b116dbb0f4e353f3f33bbf006d99f7fbfdc",
        "supplies.csv": "699b1a0d73634c962587d6f4743cb31539d6419bc3e714029a07a1d21601eae1",
        "demands.csv": "8c7f508903c38df16716cce6bc4477c4dc8183fdabf5f4c4b558285f1616420a",
        "scenario.cfg": "34c79c891f32faafa96da7851fb6deeb8f918fc4e29a20a655fc21083c6f67b3",
    }),
]


@pytest.mark.parametrize("change, digests", SMALL_SPEC_DIGESTS, ids=["partial-corridor", "every-column", "no-surge"])
def test_generated_files_match_their_digests(tmp_path, change, digests):
    paths = scenario_io.generate_fixture(small_spec(**change), tmp_path / "bundle")
    assert file_hashes(paths.all_files()) == digests


def test_fixture_storm_presets_differ(tmp_path):
    one = scenario_io.load_bundle(
        scenario_io.generate_fixture(small_spec(), tmp_path / "s1")
    )
    two = scenario_io.load_bundle(
        scenario_io.generate_fixture(small_spec(storm="storm-2-like"), tmp_path / "s2")
    )
    assert two.config.surge.h_st.max() > one.config.surge.h_st.max()
    with pytest.raises(InvalidSpecError):
        scenario_io.generate_fixture(small_spec(storm="storm-9-like"), tmp_path / "s9")


@pytest.mark.parametrize("change, message", [
    (dict(grid_width=1), "grid must be at least 2 x 4"),
    (dict(grid_height=3), "grid must be at least 2 x 4"),
    (dict(spacing_m=0.0), "spacing must be finite and > 0, got 0.0"),
    (dict(spacing_m=float("inf")), "spacing must be finite and > 0, got inf"),
    (dict(bridge_count=0, spans_per_corridor=1), "bridge count must be >= 1, got 0"),
    (dict(spans_per_corridor=0), "spans per corridor must be >= 1, got 0"),
    (dict(spans_per_corridor=-1), "spans per corridor must be >= 1, got -1"),
    (dict(grid_width=3, bridge_count=10, spans_per_corridor=2), "5 crossing corridors do not fit a grid 3 wide"),
    (dict(demand_count=0), "demand count must be >= 1, got 0"),
    (dict(supply_count=0), "supply count must be >= 1, got 0"),
    (dict(samples=0), "samples must be >= 1, got 0"),
    (dict(storm="calm", surge_peak_m=4.0), "storm 'calm' has no preset; set surge_peak_m and surge_decay_m"),
    (dict(surge_peak_m=-1.0), "surge peak must be >= 0 and decay > 0, got -1.0, 9000.0"),
    (dict(surge_decay_m=0.0), "surge peak must be >= 0 and decay > 0, got 6.5, 0.0"),
])
def test_fixture_spec_checks(tmp_path, change, message):
    with pytest.raises(InvalidSpecError) as err:
        scenario_io.generate_fixture(small_spec(**change), tmp_path / "bad")
    assert str(err.value) == message
    assert not (tmp_path / "bad").exists()


def test_spans_past_the_bridge_count_make_one_corridor_of_every_bridge(tmp_path):
    # Each corridor takes the bridges left, so 13 spans over 12 bridges is the one 12-span corridor.
    wide, exact = (scenario_io.generate_fixture(small_spec(spans_per_corridor=k), tmp_path / f"s{k}") for k in (13, 12))
    for a, b in zip(wide.all_files(), exact.all_files()):
        assert a.read_bytes() == b.read_bytes(), a.name
    bridges = scenario_io.load_bundle(wide).bridges
    assert len(bridges) == 12 and len({b.x for b in bridges}) == 1


def test_corridors_that_crowd_the_grid_take_every_column(tmp_path):
    # Five corridors on a grid five wide: spreading them between the edges would repeat columns.
    spec = small_spec(grid_width=5, bridge_count=10, spans_per_corridor=2)
    bundle = scenario_io.load_bundle(scenario_io.generate_fixture(spec, tmp_path / "narrow"))
    assert sorted({b.x for b in bundle.bridges}) == [i * spec.spacing_m for i in range(5)]
    assert len(bundle.bridges) == 10


def test_small_fixture_loads_and_runs(tmp_path):
    paths = scenario_io.generate_fixture(small_spec(samples=20), tmp_path / "sm")
    bundle = scenario_io.load_bundle(paths)
    result = simulate.run_scenario(
        bundle.config, bundle.graph, bundle.bridges, bundle.supplies, bundle.demands
    )
    assert set(result.horizons) == {"short", "long"}
    assert result.samples == 20


def test_bundle_round_trip(tmp_path, twin_dir, small_dir):
    # The small fixture has subgroup columns and a coverage radius; the twin town has neither.
    for source in (twin_dir, small_dir):
        first = scenario_io.load_bundle(source)
        again = tmp_path / f"again_{source.name}"
        scenario_io.write_bundle(first, again)
        second = scenario_io.load_bundle(again)
        assert second.bridges == first.bridges
        assert second.supplies == first.supplies
        assert second.demands == first.demands
        assert_same_config(second.config, first.config)
        assert second.crs == first.crs
        assert second.graph.node_ids == first.graph.node_ids
        assert second.graph.edge_ids == first.graph.edge_ids
        assert all(second.graph.edges[e] == first.graph.edges[e] for e in first.graph.edge_ids)
        # rewriting an unchanged bundle reproduces the same bytes
        assert file_hashes(scenario_io.BundlePaths.in_dir(again).all_files()) == file_hashes(
            scenario_io.BundlePaths.in_dir(source).all_files()
        )
    assert second.config.surge.coverage_radius_m == 2500.0
    assert sorted(second.demands[0].subgroups) == ["above_poverty", "age65plus", "below_poverty"]


@pytest.mark.parametrize("storm, crs, refused", [
    ("gale #2", "local-meters", "storm = 'gale #2'"),
    ("gale\n2", "local-meters", "storm = 'gale\\n2'"),
    (" gale", "local-meters ", "storm = ' gale', crs = 'local-meters '"),
])
def test_write_bundle_refuses_config_values_that_would_not_load_back(tmp_path, storm, crs, refused):
    # '#' starts a comment, a line break ends the line and edge spaces are stripped, so these would load back
    # different; write_bundle names each such key and writes nothing.
    bundle = scenario_io.generate_twin_town(samples=20)
    bundle.config, bundle.crs = dataclasses.replace(bundle.config, storm=storm), crs
    with pytest.raises(InvalidInputError) as err:
        scenario_io.write_bundle(bundle, tmp_path / "out")
    assert str(err.value) == f"scenario.cfg: {refused} would not load back as written"
    assert not (tmp_path / "out").exists()


def test_datum_round_trips_with_the_surge_field(tmp_path):
    # The surge field's label is the bundle's only datum: write_bundle,
    # load_bundle and the manifest all carry it.
    bundle = scenario_io.generate_twin_town(p_fail=0.5, samples=20)
    surge = bundle.config.surge
    bundle.config = dataclasses.replace(
        bundle.config, surge=hazard.SurgeField(surge.x, surge.y, surge.h_st, surge.h_s, "NAVD88")
    )
    paths = scenario_io.write_bundle(bundle, tmp_path / "navd")
    assert "datum = NAVD88\n" in paths.config.read_text()
    loaded = scenario_io.load_bundle(tmp_path / "navd")
    assert loaded.config.surge.datum_label == "NAVD88"
    assert_same_config(loaded.config, bundle.config)
    cfg = loaded.config
    result = simulate.run_scenario(cfg, loaded.graph, loaded.bridges, loaded.supplies, loaded.demands)
    written = scenario_io.write_results(result, loaded, tmp_path / "out")
    assert json.loads(written["manifest"].read_text())["datum"] == "NAVD88"


def test_write_bundle_config_text(tmp_path):
    bundle = scenario_io.generate_twin_town(p_fail=0.5, samples=50)
    bundle.config = dataclasses.replace(
        bundle.config, surge=hazard.SurgeField([900.0], [0.0], [1.0], [0.0], "twin-datum", coverage_radius_m=25.0)
    )
    paths = scenario_io.write_bundle(bundle, tmp_path / "cfg")
    assert paths.config.read_text() == (
        "storm = twin\ncrs = local-meters\ndatum = twin-datum\nd0_minutes = 50.0\nsamples = 50\nseed = 7\n"
        "horizons = short,long\nbridge_close_zc = -0.6\nroad_close_din = 0.6\nworkers = 1\n"
        "convergence_window = 100\nconvergence_tolerance = 0.01\ncoverage_radius_m = 25.0\n"
    )
    assert paths.surge.read_text() == "x,y,h_st,h_s\n900.0,0.0,1.0,0.0\n"


def test_load_bundle_missing_file(twin_dir):
    (twin_dir / scenario_io.SUPPLIES_FILE).unlink()
    (twin_dir / scenario_io.NETWORK_FILE).write_text("not json at all")  # no file is parsed before the check
    with pytest.raises(FileNotFoundError, match="missing input file: .*supplies.csv"):
        scenario_io.load_bundle(twin_dir)


def test_load_bundle_reads_each_input_file_once(twin_dir, monkeypatch):
    """The manifest hashes the very bytes that were parsed: each input is opened once."""
    opened = []
    path_open, builtin_open = Path.open, builtins.open

    def counted(real):
        def open_(file, *args, **kwargs):
            opened.append(str(file))
            return real(file, *args, **kwargs)
        return open_

    monkeypatch.setattr(Path, "open", counted(path_open))
    monkeypatch.setattr(builtins, "open", counted(builtin_open))
    bundle = scenario_io.load_bundle(twin_dir)
    monkeypatch.undo()
    paths = scenario_io.BundlePaths.in_dir(twin_dir).all_files()
    assert sorted(opened) == sorted(str(p) for p in paths)
    assert bundle.input_hashes == file_hashes(paths)


def test_load_bundle_reports_every_file_problem(twin_dir):
    valid = {path: path.read_bytes() for path in scenario_io.BundlePaths.in_dir(twin_dir).all_files()}
    (twin_dir / scenario_io.NETWORK_FILE).write_text("not json at all")
    (twin_dir / scenario_io.BRIDGES_FILE).write_text(
        "bridge_id,h_b,mass_ton_per_m,x,y\nb-main,oops,2.0,900.0,0.0\n"
    )
    (twin_dir / scenario_io.SURGE_FILE).write_text("x,y,h_st\n900.0,0.0,1.0\n")
    (twin_dir / scenario_io.SUPPLIES_FILE).write_text("supply_id,x,y\ns1,0,0\n")
    (twin_dir / scenario_io.DEMANDS_FILE).write_text(
        "demand_id,x,y,population\nd1,0.0,10.0,-5.0\n"
    )
    (twin_dir / scenario_io.CONFIG_FILE).write_text(
        "crs = local-meters\nsamples = abc\nd0_minutes = soon\nmystery = 1\nbroken line\n"
    )
    with pytest.raises(ValidationError) as err:
        scenario_io.load_bundle(twin_dir)
    text = str(err.value)
    for fragment in (
        "network.geojson: not valid JSON",
        "bridges.csv:2: bad bridge row",
        "supplies.csv: missing column(s) capacity",
        "demands.csv:2: bad demand row",
        "scenario.cfg: samples must be an integer, got 'abc'",
        "scenario.cfg: d0_minutes must be a number, got 'soon'",
        "unknown key 'mystery'",
        "expected key = value",
        "storm is required",
    ):
        assert fragment in text, fragment
    assert "validation error(s)" in text
    # A site file that already reported its column or rows is not reported again as empty.
    assert "no supply sites" not in text and "no demand locations" not in text
    # surge.csv is read even though scenario.cfg is broken, and named like every other file
    assert "surge.csv: missing column(s) h_s" in err.value.errors

    # A feature, geometry or properties that is not a JSON object is reported, not raised.
    network_file = twin_dir / scenario_io.NETWORK_FILE
    odd = [7, {"type": "Feature", "geometry": 7}, {"type": "Feature", "geometry": {"type": "Point"}, "properties": "x"}]
    network_file.write_text(json.dumps({"type": "FeatureCollection", "features": odd}))
    with pytest.raises(ValidationError) as err:
        scenario_io.load_bundle(twin_dir)
    for i in range(len(odd)):
        assert f"network.geojson: feature {i}: feature, geometry and properties must be JSON objects" in err.value.errors

    # A row with more fields than its header is bad in every CSV (here a thousands comma in y).
    for name, header, row in (
        (scenario_io.BRIDGES_FILE, "bridge_id,h_b,mass_ton_per_m,x,y", "b-main,5.0,2.0,900.0,0.0,7"),
        (scenario_io.SURGE_FILE, "x,y,h_st,h_s", "900.0,1,000.0,1.0,0.0"),
        (scenario_io.SUPPLIES_FILE, "supply_id,x,y,capacity", "s0000,5812.5,1000,46.0,2"),
        (scenario_io.DEMANDS_FILE, "demand_id,x,y,population,seniors", "d1,0.0,10.0,5.0,2.0,9,8"),
    ):
        (twin_dir / name).write_text(f"{header}\n{row}\n")
    with pytest.raises(ValidationError) as err:
        scenario_io.load_bundle(twin_dir)
    for name, kind, surplus in (
        ("bridges", "bridge", 1), ("surge", "surge", 1), ("supplies", "supply", 1), ("demands", "demand", 2)
    ):
        assert f"{name}.csv:2: bad {kind} row ({surplus} field(s) past the header)" in err.value.errors

    # A header with no rows is the one problem of its file, and is reported.
    (twin_dir / scenario_io.SUPPLIES_FILE).write_text("supply_id,x,y,capacity\n")
    with pytest.raises(ValidationError) as err:
        scenario_io.load_bundle(twin_dir)
    assert "supplies.csv: no supply sites" in err.value.errors

    # A network file that does not parse is reported alone, not again as an empty network with unreferenced
    # bridges; the bridge records are still checked.
    for path, data in valid.items():
        path.write_bytes(data)
    bridges_file = twin_dir / scenario_io.BRIDGES_FILE
    bad_bridges = "b-main,5.0,40.0,900.0,0.0\nb-nan,nan,2.0,0.0,0.0\nb-ok,5.0,2.0,0.0,0.0\nb-ok,5.0,2.0,0.0,0.0\n"
    for text, problem in (('{"type": "FeatureCollection", "features": [', "not valid JSON"),
                          ("[]", "expected a GeoJSON FeatureCollection")):
        network_file.write_text(text)
        bridges_file.write_bytes(valid[bridges_file])
        with pytest.raises(ValidationError) as err:
            scenario_io.load_bundle(twin_dir)
        assert len(err.value.errors) == 1 and err.value.errors[0].startswith(f"network.geojson: {problem}")
        bridges_file.write_text("bridge_id,h_b,mass_ton_per_m,x,y\n" + bad_bridges)
        with pytest.raises(ValidationError) as err:
            scenario_io.load_bundle(twin_dir)
        assert err.value.errors[1:] == [
            "bridge b-main: mass 40.0 ton/m outside supported range (0, 35]",
            "bridge b-nan: non-finite deck_elevation_m",
            "duplicate bridge id b-ok",
        ]


def test_bridge_masses_are_bounded_by_the_fragility_domain(twin_dir, monkeypatch):
    rows = fragility.default_table().rows
    assert rows[3].band_hi == 20.0
    monkeypatch.setattr(fragility, "default_table", lambda: fragility.FragilityTable(rows[:4]))
    bridges = (twin_dir / scenario_io.BRIDGES_FILE).read_text()
    (twin_dir / scenario_io.BRIDGES_FILE).write_text(bridges + "b-heavy,5.0,25.0,0.0,0.0\n")
    with pytest.raises(ValidationError) as err:
        scenario_io.load_bundle(twin_dir)
    assert err.value.errors == ["bridge b-heavy: mass 25.0 ton/m outside supported range (0, 20]"]


def test_load_bundle_reports_repeated_site_ids(twin_dir):
    (twin_dir / scenario_io.SUPPLIES_FILE).write_text("supply_id,x,y,capacity\ns1,0,0,1\ns2,0,0,1\ns1,0,0,1\n")
    (twin_dir / scenario_io.DEMANDS_FILE).write_text("demand_id,x,y,population\nd1,0,0,1\nd1,0,0,1\nd1,0,0,1\n")
    with pytest.raises(ValidationError) as err:
        scenario_io.load_bundle(twin_dir)
    assert err.value.errors == [
        "supplies.csv: duplicate supply id s1", "demands.csv: duplicate demand id d1", "demands.csv: duplicate demand id d1"
    ]


def test_surge_csv_values_round_trip(twin_dir):
    field = hazard.SurgeField(
        [900.0, 0.1 + 0.2, -1e6 / 3], [0.0, 7.0, 2.5e-7], [1.0, 1 / 3, 6.02e23], [0.0, 2 / 3, 1e-300],
        datum_label="twin-datum",
    )
    rows = [",".join(repr(float(v)) for v in row) for row in zip(field.x, field.y, field.h_st, field.h_s)]
    (twin_dir / scenario_io.SURGE_FILE).write_text("\n".join(["x,y,h_st,h_s", *rows]) + "\n")
    assert surge_columns(scenario_io.load_bundle(twin_dir).config.surge) == surge_columns(field)


def test_surge_csv_errors(twin_dir):
    surge = twin_dir / scenario_io.SURGE_FILE
    for text, message in (
        ("x,y,h_st\n0,0,1\n", "surge.csv: missing column(s) h_s"),
        (
            "x,y,h_st,h_s\n0,0,1,0\n5,0,oops,0\n",
            "surge.csv:3: bad surge row (could not convert string to float: 'oops')",
        ),
        ("x,y,h_st,h_s\n0,0,1,0\n5,0,1\n", "surge.csv:3: bad surge row (missing h_s)"),
        ("x,y,h_st,h_s\n0,0,1,0\n0,0,2,0\n", "surge field contains duplicate sample locations"),
    ):
        surge.write_text(text)
        with pytest.raises(ValidationError) as err:
            scenario_io.load_bundle(twin_dir)
        assert err.value.errors == [message]


def test_unknown_horizon_reported_once(twin_dir):
    cfg = twin_dir / scenario_io.CONFIG_FILE
    cfg.write_text(cfg.read_text().replace("horizons = short,long", "horizons = short,mid"))
    with pytest.raises(ValidationError) as err:
        scenario_io.load_bundle(twin_dir)
    assert len(err.value.errors) == 1
    assert err.value.errors[0].startswith("scenario.cfg: unknown horizon 'mid'")


@pytest.mark.parametrize("key, value, message", [
    ("convergence_window", "0", "scenario.cfg: convergence_window must be >= 1, got 0"),
    ("convergence_tolerance", "nan", "scenario.cfg: convergence_tolerance must be finite and > 0, got nan"),
    ("convergence_tolerance", "0", "scenario.cfg: convergence_tolerance must be finite and > 0, got 0.0"),
])
def test_bad_convergence_setting_reported_at_load(twin_dir, key, value, message):
    cfg = twin_dir / scenario_io.CONFIG_FILE
    lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line for line in cfg.read_text().splitlines()]
    assert f"{key} = {value}" in lines
    cfg.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError) as err:
        scenario_io.load_bundle(twin_dir)
    assert err.value.errors == [message]


def test_subgroup_column_named_overall_reported_once(small_dir):
    demands = small_dir / scenario_io.DEMANDS_FILE
    header, *rows = demands.read_text().splitlines()
    demands.write_text("\n".join([f"{header},overall", *(f"{row},0.0" for row in rows)]) + "\n")
    with pytest.raises(ValidationError) as err:
        scenario_io.load_bundle(small_dir)
    assert err.value.errors == ["demands.csv: column overall is reserved"]


@pytest.mark.parametrize("name, column", [
    (scenario_io.SUPPLIES_FILE, "capacity"), (scenario_io.DEMANDS_FILE, "age65plus"), (scenario_io.SURGE_FILE, "x"),
])
def test_repeated_csv_column_reported_and_no_row_read(small_dir, name, column):
    path = small_dir / name
    header, *rows = path.read_text().splitlines()
    # The last copy would win, and its bad value would be reported, if any row were read.
    path.write_text("\n".join([f"{header},{column}", *(f"{row},1.0" for row in rows[:-1]), f"{rows[-1]},oops"]) + "\n")
    with pytest.raises(ValidationError) as err:
        scenario_io.load_bundle(small_dir)
    assert err.value.errors == [f"{name}: repeated column(s) {column}"]


def test_byte_order_mark_is_not_content(twin_dir):
    """A UTF-8 byte-order mark, as spreadsheet programs write one, changes
    nothing that loads; the input hash covers the raw bytes."""
    def content(b):
        nodes = b.graph.node_ids, b.graph.node_x.tolist(), b.graph.node_y.tolist()
        config = dataclasses.replace(b.config, surge=None), surge_columns(b.config.surge)
        return nodes, b.graph.edges, b.bridges, b.supplies, b.demands, config, b.crs

    plain = content(scenario_io.load_bundle(twin_dir))
    for path in scenario_io.BundlePaths.in_dir(twin_dir).all_files():
        original = path.read_bytes()
        path.write_bytes(b"\xef\xbb\xbf" + original)
        bundle = scenario_io.load_bundle(twin_dir)
        assert content(bundle) == plain, path.name
        assert bundle.input_hashes[path.name] == hashlib.sha256(b"\xef\xbb\xbf" + original).hexdigest()
        path.write_bytes(original)


def test_parse_config_text():
    raw, errors = scenario_io.parse_config_text(
        "# comment\nstorm = alpha # trailing\n\nseed=7\nstorm = beta\n"
    )
    assert raw == {"storm": "alpha", "seed": "7"}
    assert errors == ["scenario.cfg:5: duplicate key 'storm'"]


def test_config_defaults(twin_dir):
    (twin_dir / scenario_io.CONFIG_FILE).write_text("storm = x\ncrs = local-meters\ncoverage_radius_m =\n")
    bundle = scenario_io.load_bundle(twin_dir)
    cfg = bundle.config
    assert cfg.d0_minutes == 50.0
    assert cfg.samples == 1000
    assert cfg.seed == 42
    assert cfg.horizons == ("short", "long")
    assert cfg.thresholds.bridge_close_zc == -0.6
    assert cfg.thresholds.road_close_din == 0.6
    assert cfg.workers == 1
    assert (cfg.convergence_window, cfg.convergence_tolerance) == (100, 0.01)
    assert cfg.surge.coverage_radius_m is None
    assert cfg.surge.datum_label == "unspecified"


def test_coverage_radius_round_trip(tmp_path, twin_dir):
    cfg_path = twin_dir / scenario_io.CONFIG_FILE
    cfg_path.write_text(cfg_path.read_text() + "coverage_radius_m = 2500.0\n")
    bundle = scenario_io.load_bundle(twin_dir)
    assert bundle.config.surge.coverage_radius_m == 2500.0
    scenario_io.write_bundle(bundle, tmp_path / "rt")
    again = scenario_io.load_bundle(tmp_path / "rt")
    assert again.config.surge.coverage_radius_m == 2500.0


def minimal_bundle_files(out, network_doc):
    out.mkdir()
    (out / scenario_io.NETWORK_FILE).write_text(json.dumps(network_doc))
    (out / scenario_io.BRIDGES_FILE).write_text("bridge_id,h_b,mass_ton_per_m,x,y\n")
    (out / scenario_io.SURGE_FILE).write_text("x,y,h_st,h_s\n0.0,0.0,0.0,0.0\n")
    (out / scenario_io.SUPPLIES_FILE).write_text("supply_id,x,y,capacity\ns1,60.0,0.0,5.0\n")
    (out / scenario_io.DEMANDS_FILE).write_text("demand_id,x,y,population\nd1,0.0,0.0,10.0\n")
    (out / scenario_io.CONFIG_FILE).write_text("storm = t\ncrs = local-meters\n")
    return out


def point(node_id, x, y):
    return {
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": [x, y]},
        "properties": {"id": node_id},
    }


def segment(edge_id, a, b, **props):
    base = {"id": edge_id, "length_m": 60.0, "speed_mps": 1.0, "kind": "road", "h_r": 0.0}
    base.update(props)
    return {
        "type": "Feature",
        "geometry": {"type": "LineString", "coordinates": [list(a), list(b)]},
        "properties": base,
    }


def test_geojson_coincident_nodes_bind_to_lowest_id(tmp_path):
    doc = {
        "type": "FeatureCollection",
        "features": [
            point("n10", 0.0, 0.0),
            point("n05", 0.0, 0.0),  # same spot, lower id wins
            point("n20", 60.0, 0.0),
            segment("e1", (0.0, 0.0), (60.0, 0.0)),
        ],
    }
    bundle = scenario_io.load_bundle(minimal_bundle_files(tmp_path / "bind", doc))
    assert bundle.graph.edges["e1"].u == "n05"


def test_geojson_unmatched_endpoint_reported(tmp_path):
    doc = {
        "type": "FeatureCollection",
        "features": [
            point("n1", 0.0, 0.0),
            point("n2", 60.0, 0.0),
            segment("e1", (5.0, 5.0), (60.0, 0.0)),
        ],
    }
    with pytest.raises(ValidationError, match="matches no node"):
        scenario_io.load_bundle(minimal_bundle_files(tmp_path / "nomatch", doc))


def test_geojson_rejects_unsupported_geometry(tmp_path):
    doc = {
        "type": "FeatureCollection",
        "features": [
            point("n1", 0.0, 0.0),
            point("n2", 60.0, 0.0),
            segment("e1", (0.0, 0.0), (60.0, 0.0)),
            {
                "type": "Feature",
                "geometry": {"type": "Polygon", "coordinates": []},
                "properties": {},
            },
        ],
    }
    with pytest.raises(ValidationError, match="unsupported geometry 'Polygon'"):
        scenario_io.load_bundle(minimal_bundle_files(tmp_path / "poly", doc))


def test_geojson_errors_keep_their_text_and_feature_index(tmp_path):
    """Every network.geojson failure, in the order and words the loader has always reported them:
    non-edge features first, then edges, each by its index in the collection."""
    features = [
        segment("e1", (0.0, 0.0), (60.0, 0.0)),  # edges listed before the nodes they join
        {"type": "Feature", "geometry": {"type": "LineString", "coordinates": [[0.0, 0.0]]},
         "properties": {"id": "e2"}},
        segment("e3", (0.0, 0.0), (5.0, 5.0)),
        {"type": "Feature", "geometry": {"type": "Polygon", "coordinates": []}, "properties": {}},
        7,
        {"geometry": {"type": "Point", "coordinates": [120.0, 0.0]}, "properties": {"id": "n3"}},  # no "type": a node
        point("n4", "east", 0.0),
        point("n1", 0.0, 0.0),
        point("n2", 60.0, 0.0),
        segment("e4", (60.0, 0.0), (120.0, 0.0)),
        # Two failures in one edge: the first its checks meet is reported.
        segment("e5", (9.0, 9.0), (60.0, 0.0), length_m="far"),
        {"type": "Feature", "geometry": {"type": "LineString", "coordinates": [[0.0, 0.0], ["x", 0.0]]},
         "properties": {"id": "e6"}},
        segment("e7", (0.0, 0.0), (60.0, 0.0), length_m="far"),
        # Properties that say "type": "Feature" without a geometry are read as properties.
        {"type": "Feature", "geometry": {"type": "Point", "coordinates": [180.0, 0.0]},
         "properties": {"id": "n5", "type": "Feature"}},
    ]
    doc = {"type": "FeatureCollection", "features": features}
    with pytest.raises(ValidationError) as err:
        scenario_io.load_bundle(minimal_bundle_files(tmp_path / "bad", doc))
    assert err.value.errors == [
        "network.geojson: feature 3: unsupported geometry 'Polygon'",
        "network.geojson: feature 4: feature, geometry and properties must be JSON objects",
        "network.geojson: feature 6: bad node (ValueError(\"could not convert string to float: 'east'\"))",
        "network.geojson: feature 1: bad edge (LineString needs at least two coordinates)",
        "network.geojson: feature 2: bad edge (endpoint (5.0, 5.0) matches no node)",
        "network.geojson: feature 10: bad edge (endpoint (9.0, 9.0) matches no node)",
        "network.geojson: feature 11: bad edge (could not convert string to float: 'x')",
        "network.geojson: feature 12: bad edge (could not convert string to float: 'far')",
    ]

    good = [features[i] for i in (0, 5, 7, 8, 9, 13)]
    graph = scenario_io.load_bundle(minimal_bundle_files(tmp_path / "good", {**doc, "features": good})).graph
    assert graph.node_ids == ("n1", "n2", "n3", "n5")
    assert (graph.edges["e1"].u, graph.edges["e1"].v, graph.edges["e4"].v) == ("n1", "n2", "n3")


def test_geojson_object_nested_in_a_feature_that_reads_as_a_feature(tmp_path):
    """Features are converted as they decode, wherever they sit: properties (or a geometry) that carry
    both "type": "Feature" and a geometry read as a converted feature, not as an object."""
    nested = {"type": "Feature", "geometry": {"type": "Point", "coordinates": [0.0, 0.0]}, "properties": {"id": "n0"}}
    odd = point("n9", 0.0, 0.0)
    odd["properties"] = {"id": "n9", **nested}
    doc = {"type": "FeatureCollection", "features": [point("n1", 0.0, 0.0), odd]}
    with pytest.raises(ValidationError) as err:
        scenario_io.load_bundle(minimal_bundle_files(tmp_path / "nested", doc))
    assert err.value.errors == ["network.geojson: feature 1: feature, geometry and properties must be JSON objects"]


def test_load_bundle_traced_peak_is_a_few_times_the_network_file(small_dir):
    """Features become nodes and edges as they decode, so the whole JSON tree (about 5x the
    file's bytes) is never held."""
    scenario_io.load_bundle(small_dir)  # imports and caches settle first
    tracemalloc.start()
    try:
        scenario_io.load_bundle(small_dir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * (small_dir / scenario_io.NETWORK_FILE).stat().st_size


def test_load_bundle_keeps_no_node_or_edge_records(default_fixture_dir):
    """The graph holds its nodes and edges as columns: a load leaves no Node or Edge alive, and what it
    still holds, the whole bundle included, is less than network.geojson's bytes."""
    def records():
        gc.collect()
        return sum(isinstance(obj, (network.Node, network.Edge)) for obj in gc.get_objects())

    scenario_io.load_bundle(default_fixture_dir)  # imports and caches settle first
    before = records()
    tracemalloc.start()
    try:
        bundle = scenario_io.load_bundle(default_fixture_dir)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert records() == before
    assert held < (default_fixture_dir / scenario_io.NETWORK_FILE).stat().st_size
    assert len(bundle.graph.edge_ids) > 3500


def assert_same_graph(a, b):
    """Two RoadGraphs agree id for id, record for record and array for array, bit for bit."""
    assert (a.node_ids, a.edge_ids, a.road_ids, a.bridge_ids) == (b.node_ids, b.edge_ids, b.road_ids, b.bridge_ids)
    assert a.bridges == b.bridges
    arrays = ("node_x", "node_y", "_edge_u", "_edge_v", "_edge_minutes", "bridge_rows", "road_sites", "bridge_sites")
    for name in arrays:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name


def test_load_bundle_and_build_graph_build_the_same_graph(tmp_path, monkeypatch):
    """The columns network.geojson decodes into, the generator's own columns, and build_graph on Node and
    Edge records read from the loaded graph give the same graph, and its edges read back as the records."""
    generated, real = [], scenario_io.RoadGraph

    def road_graph(*args):
        generated.append(real(*args))
        return generated[-1]

    monkeypatch.setattr(scenario_io, "RoadGraph", road_graph)
    scenario_io.generate_fixture(small_spec(), tmp_path / "small")
    monkeypatch.undo()
    loaded = scenario_io.load_bundle(tmp_path / "small").graph
    nodes = [network.Node(*node) for node in zip(loaded.node_ids, loaded.node_x.tolist(), loaded.node_y.tolist())]
    edges, bridges = list(loaded.edges.values()), list(loaded.bridges.values())
    built = network.build_graph(nodes, edges, bridges)
    assert len(generated) == 1
    for graph in (built, generated[0]):
        assert_same_graph(graph, loaded)
        assert graph.edges == loaded.edges
    assert any(edge.kind == network.BRIDGE for edge in edges)
    assert all(built.edges[edge.edge_id] == edge for edge in edges)
    built_nodes = zip(built.node_ids, built.node_x.tolist(), built.node_y.tolist())
    assert sorted((node.node_id, node.x, node.y) for node in nodes) == list(built_nodes)


def collection_bytes(features):
    """The oracle for _write_features: the whole collection as one json.dumps."""
    return (json.dumps({"type": "FeatureCollection", "features": features}, indent=2) + "\n").encode()


def escaping_bundle():
    """The twin town with node and edge ids JSON must escape: a quote, a backslash, a newline, non-ASCII."""
    twin = scenario_io.generate_twin_town(samples=20)
    names = {"na": 'n"a', "nb": "n\\b", "nc": "n\nc", "nd": "n\u0153ud-d"}
    graph = twin.graph
    rows = zip(graph.node_ids, graph.node_x.tolist(), graph.node_y.tolist())
    nodes = [network.Node(names[n], x, y) for n, x, y in rows]
    edges = [dataclasses.replace(e, edge_id=e.edge_id + '-\u00e9"\\', u=names[e.u], v=names[e.v])
             for e in graph.edges.values()]
    return dataclasses.replace(twin, graph=network.build_graph(nodes, edges, twin.bridges))


def test_write_features_writes_the_bytes_of_one_json_dumps(tmp_path, twin_dir, small_dir):
    """Each FeatureCollection write_bundle and write_results stream, and _write_features on a collection of
    one feature or none, has the bytes of the whole collection dumped at once."""
    bundle = escaping_bundle()
    scenario_io.write_bundle(bundle, tmp_path / "escaped")
    assert scenario_io.load_bundle(tmp_path / "escaped").graph.node_ids == bundle.graph.node_ids
    twin, result = run_twin()
    written = scenario_io.write_results(result, twin, tmp_path / "out")
    files = [d / scenario_io.NETWORK_FILE for d in (twin_dir, small_dir, tmp_path / "escaped")]
    for path in files + [written["results_short"], written["results_long"]]:
        data = path.read_bytes()
        features = json.loads(data)["features"]
        assert data == collection_bytes(features), path
        for chosen in (features, features[:1], []):
            scenario_io._write_features(tmp_path / "one.geojson", iter(chosen))
            assert (tmp_path / "one.geojson").read_bytes() == collection_bytes(chosen)
    assert b'"id": "n\\"a"' in files[2].read_bytes() and b'"id": "n\\u0153ud-d"' in files[2].read_bytes()


def test_write_bundle_traced_peak_is_below_the_network_file(default_bundle, tmp_path):
    """network.geojson is written a feature at a time, so neither its feature list nor its whole text
    (together about 9x the file's bytes) is held."""
    scenario_io.write_bundle(default_bundle, tmp_path / "first")  # imports and caches settle first
    tracemalloc.start()
    try:
        scenario_io.write_bundle(default_bundle, tmp_path / "again")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "again" / scenario_io.NETWORK_FILE).stat().st_size


@pytest.mark.parametrize("name", [p.name for p in scenario_io.BundlePaths.in_dir(".").all_files()])
def test_file_that_is_not_utf8_is_a_validation_error(twin_dir, name):
    path = twin_dir / name
    path.write_bytes(path.read_bytes() + b"\xe9")
    with pytest.raises(ValidationError) as err:
        scenario_io.load_bundle(twin_dir)
    assert len(err.value.errors) == 1
    assert err.value.errors[0].startswith(f"{name}: not UTF-8 text ('utf-8' codec can't decode byte 0xe9 in position ")


def run_twin(samples=50):
    bundle = scenario_io.generate_twin_town(p_fail=0.5, samples=samples)
    result = simulate.run_scenario(
        bundle.config, bundle.graph, bundle.bridges, bundle.supplies, bundle.demands
    )
    return bundle, result


def test_write_results_round_trip(tmp_path):
    bundle, result = run_twin()
    written = scenario_io.write_results(result, bundle, tmp_path / "out")
    back = scenario_io.read_results(tmp_path / "out")

    manifest = back["manifest"]
    assert manifest["storm"] == "twin"
    assert manifest["samples"] == 50
    assert manifest["horizons"] == ["short", "long"]
    assert manifest["fragility_checksum"] == fragility.default_table().checksum()
    assert manifest["inputs"] == {}  # in-memory bundle, nothing hashed
    for horizon, hres in result.horizons.items():
        assert manifest["summary"][horizon]["average_score"] == hres.group_averages["overall"]
        assert manifest["summary"][horizon]["converged_at"] == hres.converged_at
        props = back["horizons"][horizon]
        assert set(props) == {"d1", "d2"}
        for pos, did in enumerate(hres.demand_ids):
            assert props[did]["mean_score"] == float(hres.mean_scores[pos])
            assert props[did]["quartile"] == hres.quartiles[did]
    overall_rows = [g for g in back["groups"] if g["group"] == "overall"]
    assert {r["horizon"] for r in overall_rows} == {"short", "long"}
    assert float(overall_rows[0]["weight"]) == 300.0


def test_manifest_records_the_table_the_run_used(tmp_path, monkeypatch):
    bundle = scenario_io.generate_twin_town(p_fail=0.5, samples=50)
    default_rows = fragility.default_table().rows
    custom = fragility.FragilityTable([dataclasses.replace(default_rows[0], a=0.3)] + list(default_rows[1:]))
    assert custom.checksum() != fragility.default_table().checksum()
    monkeypatch.setattr(fragility, "default_table", lambda: custom)
    result = simulate.run_scenario(bundle.config, bundle.graph, bundle.bridges, bundle.supplies, bundle.demands)
    assert result.failure_probability["b-main"] != pytest.approx(0.5)  # the run drew from the custom table
    assert result.fragility_checksum == custom.checksum()
    scenario_io.write_results(result, bundle, tmp_path / "out")
    manifest = scenario_io.read_results(tmp_path / "out")["manifest"]
    assert manifest["fragility_checksum"] == custom.checksum()


def test_write_results_byte_identical_across_reruns(tmp_path):
    bundle_a, result_a = run_twin()
    bundle_b, result_b = run_twin()
    pa = scenario_io.write_results(result_a, bundle_a, tmp_path / "a")
    pb = scenario_io.write_results(result_b, bundle_b, tmp_path / "b")
    assert set(pa) == set(pb) == {"results_short", "results_long", "group_summary", "manifest"}
    for key in pa:
        assert pa[key].read_bytes() == pb[key].read_bytes()


def test_group_weights_add_in_demand_order(tmp_path):
    """Each group's weight is added demand by demand, as weighted_average's denominator is, on the result and
    in group_summary.csv, so it does not depend on whether sum() compensates (it does from Python 3.12)."""
    bundle = scenario_io.generate_twin_town(samples=1)
    demands = [access.DemandSite(f"d{k}", 0.0, 0.0, pop, {"group": pop}) for k, pop in enumerate((0.1, 0.2, 0.3))]
    bundle = dataclasses.replace(bundle, demands=tuple(demands))
    result = simulate.run_scenario(bundle.config, bundle.graph, bundle.bridges, bundle.supplies, bundle.demands)
    in_order = 0.0 + 0.1 + 0.2 + 0.3
    assert in_order == 0.6000000000000001 and result.group_weights == {"overall": in_order, "group": in_order}
    scenario_io.write_results(result, bundle, tmp_path / "out")
    weights = {row["group"]: row["weight"] for row in scenario_io.read_results(tmp_path / "out")["groups"]}
    assert weights == {"overall": "0.6000000000000001", "group": "0.6000000000000001"}


# sha256 of each write_results file at seed 42, manifest.json without its package_version line: storm-1,
# storm-2 and the twin town at N=1000, perfbench's calm-sampling workload at N=20,000, and the county-shaped
# CI spec at N=50.
# A change that means to move an output updates these digests and says so.
GOLDEN_DIGESTS = {
    "storm-1": {
        "results_short.geojson": "10ef130af50e8759b3abfe690752a62819dc6a0bbf214bfb08b00c5da350b9b7",
        "results_long.geojson": "068b0e22e2771e544e12573395e1e9b3ffe281e62278ed830dc6caf9c848ab80",
        "group_summary.csv": "ab188f001dbc2a13c162304210cd4ee05b45e5f7b00daff98d8ff97f866937b8",
        "manifest.json": "f860a4151840b24a5a5d8c242989ccae4331059c8e8568c618315b08eb2e815e",
    },
    "storm-2": {
        "results_short.geojson": "baba9179c9b1a16760eb1953d24a144f1a0378020b15d87a1b7cab6c83354bf4",
        "results_long.geojson": "4e55b62fe2a109abf0c073f18fe5ee09397663aadc75d31f0dadf8665768eb21",
        "group_summary.csv": "4b266c7b6fb69970ec637768b1a028d9036fcf28444d6c7cb55176ca56e15ba4",
        "manifest.json": "99021df9473aa53fbcb71c8699e39c1bec0b929dcae8c280c0776eba4beecc5b",
    },
    "twin": {
        "results_short.geojson": "d2bf07e9562edbc83c5414561df1b5798815c950162295174b06ab3057c95c71",
        "results_long.geojson": "5175a3d56ecf4da6f1e3e65385d3e8e231f7b5de9710ae47563a7b553a131b87",
        "group_summary.csv": "609f4b570b79acaee7053a35e80e2bb8027fc35167c152844604640066225e7a",
        "manifest.json": "d328af2089cb2547d49ee85ae11068e2bfa69292dbea2b3443a0055130c2e7aa",
    },
    "calm-sampling": {
        "results_short.geojson": "6f87f21ebed5da0b4aaa17880c9266c43f5ff4848084e254c4a5a24a72c4c62d",
        "results_long.geojson": "c347f41929a4b450a1e57e021096653301a658b063cffd0132bc6e1b83ed8dd9",
        "group_summary.csv": "6cb914eabe9e77112ea139d58094aef6f0f9d62d00991a514acc34a57527f605",
        "manifest.json": "524c791f7beb9cdfba2d173bcf6e1e4c2a2789c4801296bdcb967a3d6e01fe3c",
    },
    "county": {
        "results_short.geojson": "a985bb0e764bd3f0ffb04d077ae9e04e49e52ac56a331c3ec79c60535585eecd",
        "results_long.geojson": "20a7a96fdd16e9070684fc7f5912676b23f76c185dbcaf99c9bd4a899cc05133",
        "group_summary.csv": "999defe7b9d6525e509d0a78ec3da90e2fe806a9248a72d2f14fc8255f058603",
        "manifest.json": "56dc2a899a36722e51358ed196379a3710f59201a46a83401211f71775ff21ee",
    },
}


def result_digests(result, bundle, out):
    digests = {}
    for path in scenario_io.write_results(result, bundle, out).values():
        lines = path.read_bytes().splitlines(keepends=True)
        if path.name == "manifest.json":
            lines = [line for line in lines if not line.lstrip().startswith(b'"package_version":')]
        digests[path.name] = hashlib.sha256(b"".join(lines)).hexdigest()
    return digests


def test_write_results_bytes_match_the_golden_digests(default_bundle, storm1_run, storm2_bundle, storm2_run, tmp_path):
    twin = scenario_io.generate_twin_town(seed=42)
    twin_result = simulate.run_scenario(twin.config, twin.graph, twin.bridges, twin.supplies, twin.demands)
    calm_spec = scenario_io.SyntheticFixtureSpec(storm="calm", surge_peak_m=4.0, surge_decay_m=9000.0, samples=20_000)
    scenario_io.generate_fixture(calm_spec, tmp_path / "calm")
    calm = scenario_io.load_bundle(tmp_path / "calm")
    calm_result = simulate.run_scenario(calm.config, calm.graph, calm.bridges, calm.supplies, calm.demands)
    runs = {"storm-1": (storm1_run[0], default_bundle), "storm-2": (storm2_run[0], storm2_bundle),
            "twin": (twin_result, twin), "calm-sampling": (calm_result, calm)}
    for name, (result, bundle) in runs.items():
        assert (result.seed, result.samples) == (42, 20_000 if name == "calm-sampling" else 1000)
        assert result_digests(result, bundle, tmp_path / name) == GOLDEN_DIGESTS[name], name


def test_county_results_match_the_golden_digests(tmp_path):
    """The county-shaped CI spec: several blocks of reach searches, contested pairs, and its generator's bytes
    through the manifest's input hashes."""
    spec = scenario_io.SyntheticFixtureSpec(grid_width=178, grid_height=46, bridge_count=352, demand_count=786,
                                            supply_count=4000, storm="storm-2-like", samples=50)
    bundle = scenario_io.load_bundle(scenario_io.generate_fixture(spec, tmp_path / "county"))
    result = simulate.run_scenario(bundle.config, bundle.graph, bundle.bridges, bundle.supplies, bundle.demands)
    assert (result.seed, result.samples) == (42, 50)
    assert result_digests(result, bundle, tmp_path / "out") == GOLDEN_DIGESTS["county"]


def test_twin_town_guardrails():
    with pytest.raises(InvalidSpecError):
        scenario_io.generate_twin_town(p_fail=0.8)
    bundle = scenario_io.generate_twin_town(p_fail=0.0)
    assert bundle.graph.component_count == 1


def test_override_config():
    bundle = scenario_io.generate_twin_town(samples=10)
    same = scenario_io.override_config(bundle.config, samples=None, workers=None)
    assert same is bundle.config
    changed = scenario_io.override_config(bundle.config, samples=99, seed=1)
    assert changed.samples == 99 and changed.seed == 1
    assert changed.storm == bundle.config.storm
