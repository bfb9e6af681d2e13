"""Command-line behavior: exit codes, outputs, flag overrides."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import surgeaccess
from surgeaccess import __version__, cli, scenario_io, simulate
from surgeaccess.fragility import default_table


@pytest.fixture()
def twin_dir(tmp_path):
    bundle = scenario_io.generate_twin_town(p_fail=0.5, samples=40)
    scenario_io.write_bundle(bundle, tmp_path / "twin")
    return tmp_path / "twin"


@pytest.fixture()
def small_fixture_dir(tmp_path):
    spec = scenario_io.SyntheticFixtureSpec(
        grid_width=24, grid_height=8, bridge_count=12, spans_per_corridor=4,
        demand_count=16, supply_count=40, samples=30,
    )
    scenario_io.generate_fixture(spec, tmp_path / "bundle")
    return tmp_path / "bundle"


def test_version_reports_table_checksum(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "40")  # a narrow terminal must not wrap the checksum onto a second line
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--version"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert __version__ in out
    assert default_table().checksum() in out
    assert len(out.splitlines()) == 1


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run"])  # missing --data/--out
    assert exit_info.value.code == 2
    with pytest.raises(SystemExit):
        cli.main([])


def test_validate_ok(twin_dir, capsys):
    assert cli.main(["validate", "--data", str(twin_dir)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "bundle ok" in out
    assert "bridges=1" in out
    assert "storm=twin" in out


def test_validate_broken_bundle_exit_3(twin_dir, capsys):
    (twin_dir / scenario_io.BRIDGES_FILE).write_text(
        "bridge_id,h_b,mass_ton_per_m,x,y\nb-main,2.0,99.0,900.0,0.0\n"
    )
    assert cli.main(["validate", "--data", str(twin_dir)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "validation failed" in err
    assert "outside supported range" in err


@pytest.mark.parametrize("name", [scenario_io.SUPPLIES_FILE, scenario_io.NETWORK_FILE])
def test_file_that_is_not_utf8_exit_3(twin_dir, tmp_path, capsys, name):
    path = twin_dir / name
    path.write_bytes(path.read_bytes() + b"\xe9")
    for argv in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert cli.main([*argv, "--data", str(twin_dir)]) == cli.EXIT_VALIDATION
        assert f"{name}: not UTF-8 text" in capsys.readouterr().err


def test_missing_bundle_exit_5(tmp_path, capsys):
    assert cli.main(["validate", "--data", str(tmp_path / "nope")]) == cli.EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_run_writes_results_and_honors_flags(small_fixture_dir, tmp_path, capsys):
    out_dir = tmp_path / "results"
    code = cli.main([
        "run", "--data", str(small_fixture_dir), "--out", str(out_dir),
        "--samples", "20", "--seed", "5",
    ])
    assert code == cli.EXIT_OK
    stdout = capsys.readouterr().out
    assert "samples=20" in stdout
    assert "short" in stdout and "long" in stdout
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["samples"] == 20 and manifest["seed"] == 5
    for name in ("results_short.geojson", "results_long.geojson", "group_summary.csv"):
        assert (out_dir / name).exists()


def test_demand_group_named_overall_exit_3(small_fixture_dir, tmp_path, capsys):
    # "overall" is the whole population's row in group_summary.csv and the
    # manifest's average_score; a subgroup by that name would replace it.
    demands = small_fixture_dir / scenario_io.DEMANDS_FILE
    header, *rows = demands.read_text().splitlines()
    rows = [f"{row},{1.0 if k == 0 else 0.0}" for k, row in enumerate(rows)]
    demands.write_text("\n".join([f"{header},overall", *rows]) + "\n")
    assert cli.main(["validate", "--data", str(small_fixture_dir)]) == cli.EXIT_VALIDATION
    assert "demands.csv: column overall is reserved" in capsys.readouterr().err
    out_dir = tmp_path / "results"
    assert cli.main(["run", "--data", str(small_fixture_dir), "--out", str(out_dir)]) == cli.EXIT_VALIDATION
    assert "demands.csv: column overall is reserved" in capsys.readouterr().err
    assert not out_dir.exists()


def test_alternate_config_is_read_and_named_in_errors(small_fixture_dir, tmp_path, capsys):
    alternate = tmp_path / "alternate.cfg"
    text = (small_fixture_dir / scenario_io.CONFIG_FILE).read_text()
    assert "samples = 30\n" in text
    alternate.write_text(text.replace("samples = 30\n", "samples = 12\n"))
    assert cli.main(["validate", "--data", str(small_fixture_dir), "--config", str(alternate)]) == cli.EXIT_OK
    out_dir = tmp_path / "results"
    code = cli.main(["run", "--data", str(small_fixture_dir), "--config", str(alternate), "--out", str(out_dir)])
    assert code == cli.EXIT_OK
    assert json.loads((out_dir / "manifest.json").read_text())["samples"] == 12
    capsys.readouterr()

    alternate.write_text(text.replace("samples = 30\n", "samples = many\n"))
    for command in (["validate"], ["run", "--out", str(tmp_path / "broken")]):
        code = cli.main([*command, "--data", str(small_fixture_dir), "--config", str(alternate)])
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "alternate.cfg: samples must be" in err and scenario_io.CONFIG_FILE not in err

    # A value that parses but that the run configuration rejects names the file too.
    alternate.write_text(text.replace("horizons = short,long\n", "horizons = soon\n"))
    assert cli.main(["validate", "--data", str(small_fixture_dir), "--config", str(alternate)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "alternate.cfg: unknown horizon 'soon'" in err and scenario_io.CONFIG_FILE not in err


def test_run_single_horizon(small_fixture_dir, tmp_path):
    out_dir = tmp_path / "results"
    code = cli.main([
        "run", "--data", str(small_fixture_dir), "--out", str(out_dir),
        "--samples", "10", "--horizons", "short",
    ])
    assert code == cli.EXIT_OK
    assert (out_dir / "results_short.geojson").exists()
    assert not (out_dir / "results_long.geojson").exists()


def test_run_rejects_unknown_horizon(small_fixture_dir, tmp_path, capsys):
    code = cli.main([
        "run", "--data", str(small_fixture_dir), "--out", str(tmp_path / "x"),
        "--horizons", "soon",
    ])
    assert code == cli.EXIT_RUNTIME
    assert "unknown horizon" in capsys.readouterr().err


def test_fixture_command_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "gen"
    code = cli.main([
        "fixture", "--out", str(out_dir), "--grid", "24x8", "--bridges", "12",
        "--demands", "16", "--supplies", "40", "--samples", "25",
    ])
    assert code == cli.EXIT_OK
    assert "fixture written" in capsys.readouterr().out
    assert cli.main(["validate", "--data", str(out_dir)]) == cli.EXIT_OK


def test_fixture_with_fewer_bridges_than_a_corridor_holds(tmp_path, capsys):
    # --bridges 4 is below the spec's 11 spans per corridor: the one corridor takes all four.
    out_dir = tmp_path / "gen"
    argv = ["fixture", "--out", str(out_dir), "--grid", "12x6", "--bridges", "4", "--demands", "8", "--samples", "20"]
    assert cli.main(argv) == cli.EXIT_OK
    assert cli.main(["validate", "--data", str(out_dir)]) == cli.EXIT_OK
    assert "bridges=4" in capsys.readouterr().out
    assert cli.main(["run", "--data", str(out_dir), "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert len(list((tmp_path / "out").iterdir())) == 4


def test_fixture_refuses_a_storm_name_the_config_cannot_hold(tmp_path, capsys):
    argv = ["fixture", "--out", str(tmp_path / "g"), "--storm", "gale #2", "--peak", "5", "--decay", "9000"]
    assert cli.main(argv) == cli.EXIT_RUNTIME
    assert "storm = 'gale #2' would not load back as written" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


def test_fixture_flags_map_onto_the_spec(tmp_path):
    # No flags: the SyntheticFixtureSpec defaults, byte for byte.
    assert cli.main(["fixture", "--out", str(tmp_path / "cli")]) == cli.EXIT_OK
    paths = scenario_io.generate_fixture(scenario_io.SyntheticFixtureSpec(), tmp_path / "api")
    for p in paths.all_files():
        assert (tmp_path / "cli" / p.name).read_bytes() == p.read_bytes(), p.name
    # Every flag lands on its own spec field.
    assert cli.main([
        "fixture", "--out", str(tmp_path / "cli2"), "--storm", "gale", "--seed", "5", "--grid", "20x6",
        "--spacing", "250", "--bridges", "12", "--demands", "9", "--supplies", "30", "--samples", "7",
        "--d0", "40", "--peak", "5.5", "--decay", "7000",
    ]) == cli.EXIT_OK
    spec = scenario_io.SyntheticFixtureSpec(
        storm="gale", seed=5, grid_width=20, grid_height=6, spacing_m=250.0, bridge_count=12,
        demand_count=9, supply_count=30, samples=7, d0_minutes=40.0, surge_peak_m=5.5, surge_decay_m=7000.0,
    )
    paths = scenario_io.generate_fixture(spec, tmp_path / "api2")
    for p in paths.all_files():
        assert (tmp_path / "cli2" / p.name).read_bytes() == p.read_bytes(), p.name


def test_fixture_rejects_bad_grid(tmp_path, capsys):
    code = cli.main(["fixture", "--out", str(tmp_path / "g"), "--grid", "big"])
    assert code == cli.EXIT_RUNTIME
    assert "--grid expects" in capsys.readouterr().err


def result_dir(tmp_path, name, p_fail):
    bundle = scenario_io.generate_twin_town(p_fail=p_fail, samples=60)
    result = simulate.run_scenario(
        bundle.config, bundle.graph, bundle.bridges, bundle.supplies, bundle.demands
    )
    out = tmp_path / name
    scenario_io.write_results(result, bundle, out)
    return out


def test_report_compares_runs(tmp_path, capsys):
    base = result_dir(tmp_path, "base", 0.2)
    other = result_dir(tmp_path, "other", 0.6)
    deltas = tmp_path / "deltas.csv"
    code = cli.main(["report", str(base), str(other), "--out", str(deltas)])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "avg_score" in out and "no_access" in out
    assert "quartile drops:" in out
    assert "cross-horizon deltas are biased" in out
    lines = deltas.read_bytes().split(b"\n")
    assert lines[0] == b"demand_id,horizon,base_mean,other_mean,delta,base_quartile,other_quartile"
    assert len(lines) == 2 * 2 + 2 and lines[-1] == b""  # two demands on two horizons, "\n" line ends
    b_props = scenario_io.read_results(base)["horizons"]["short"]["d1"]
    o_props = scenario_io.read_results(other)["horizons"]["short"]["d1"]
    b_mean, o_mean = b_props["mean_score"], o_props["mean_score"]
    row = f"d1,short,{b_mean!r},{o_mean!r},{o_mean - b_mean!r},{b_props['quartile']},{o_props['quartile']}"
    assert lines[1] == row.encode()


def test_report_counts_quartile_drops_and_skips_demands_missing_from_other(tmp_path, capsys):
    base, other = result_dir(tmp_path, "base", 0.3), result_dir(tmp_path, "other", 0.3)
    for run, edit in ((base, lambda features: features[0]["properties"].update(quartile="Q4")),
                      (other, lambda features: [features[0]["properties"].update(quartile="Q3"), features.pop(1)])):
        path = run / "results_short.geojson"
        doc = json.loads(path.read_text())
        assert [f["properties"]["demand_id"] for f in doc["features"]] == ["d1", "d2"]
        edit(doc["features"])
        path.write_text(json.dumps(doc))
    deltas = tmp_path / "deltas.csv"
    assert cli.main(["report", str(base), str(other), "--out", str(deltas)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if "quartile drops" in line] == [
        "  quartile drops: 1", "  quartile drops: 0"  # short: d1 went Q4 -> Q3, d2 is not in other; long: none
    ]
    rows = [line.split(",")[:2] for line in deltas.read_text().splitlines()[1:]]
    assert rows == [["d1", "short"], ["d1", "long"], ["d2", "long"]]


def test_report_missing_dir_exit_5(tmp_path, capsys):
    base = result_dir(tmp_path, "only", 0.3)
    assert cli.main(["report", str(base), str(tmp_path / "ghost")]) == cli.EXIT_IO


def test_report_malformed_manifest_exit_4(tmp_path, capsys):
    base = result_dir(tmp_path, "ok", 0.3)
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "manifest.json").write_text("{]")
    assert cli.main(["report", str(base), str(broken)]) == cli.EXIT_RUNTIME
    assert "malformed results directory" in capsys.readouterr().err


def test_report_manifest_without_summary_exit_4(tmp_path, capsys):
    base = result_dir(tmp_path, "ok", 0.3)
    other = result_dir(tmp_path, "other", 0.3)
    manifest = json.loads((other / "manifest.json").read_text())
    del manifest["summary"]
    (other / "manifest.json").write_text(json.dumps(manifest))
    assert cli.main(["report", str(base), str(other)]) == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert "malformed results directory" in captured.err and "summary" in captured.err
    assert captured.out == ""


def test_report_unknown_quartile_label_exit_4(tmp_path, capsys):
    base = result_dir(tmp_path, "ok", 0.3)
    other = result_dir(tmp_path, "other", 0.3)
    path = other / "results_short.geojson"
    doc = json.loads(path.read_text())
    doc["features"][0]["properties"]["quartile"] = "Q9"
    path.write_text(json.dumps(doc))
    assert cli.main(["report", str(base), str(other)]) == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert "malformed results directory" in captured.err and "Q9" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "name, edit",
    [
        ("results_short.geojson", lambda doc: doc["features"][0]["properties"].update(mean_score="12.5")),
        ("manifest.json", lambda doc: [1, 2]),
        ("manifest.json", lambda doc: doc["summary"]["short"].update(average_score="12.5")),  # fails :.4f
    ],
    ids=["string-mean-score", "list-manifest", "string-average-score"],
)
def test_report_wrong_typed_results_exit_4(tmp_path, capsys, name, edit):
    base = result_dir(tmp_path, "ok", 0.3)
    other = result_dir(tmp_path, "other", 0.3)
    doc = json.loads((other / name).read_text())
    replaced = edit(doc)
    (other / name).write_text(json.dumps(doc if replaced is None else replaced))
    assert cli.main(["report", str(base), str(other)]) == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert "malformed results directory" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "blocked, openssl",
    [
        (("scipy", "hashlib", "_hashlib"), False),
        (("_sha2", "_sha256"), True),
        (("concurrent.futures", "numpy.ma"), False),
    ],
    ids=["scipy-and-openssl", "builtin-sha256", "thread-pool-and-numpy-ma"],
)
def test_the_package_imports_and_runs_with_modules_blocked(twin_dir, tmp_path, blocked, openssl):
    # scipy is only the tests' shortest-path oracle and the package hashes with the built-in SHA-256, so with
    # those blocked every module imports and a run completes; with the built-in blocked it falls back to hashlib.
    # Runs map the networks on their own threads and use no numpy call that loads numpy.ma (numpy 1.x imports it
    # with numpy, so it is blocked only where numpy leaves it out). Every run writes the bytes an unblocked one does.
    script = """
import importlib, pkgutil, sys
import numpy
for name in sys.argv[1].split(","):
    if name != "numpy.ma" or name not in sys.modules:
        sys.modules[name] = None
import surgeaccess
for module in pkgutil.iter_modules(surgeaccess.__path__):
    importlib.import_module("surgeaccess." + module.name)
from surgeaccess import cli
for data, out in zip(sys.argv[2::2], sys.argv[3::2]):
    if cli.main(["run", "--data", data, "--out", out]) != 0:
        sys.exit(1)
print("openssl loaded:", sys.modules.get("_hashlib") is not None)
"""
    grid = ["--grid", "24x8", "--bridges", "12", "--demands", "16", "--supplies", "40", "--samples", "25"]
    assert cli.main(["fixture", "--out", str(tmp_path / "grid"), *grid]) == 0
    runs = [(twin_dir, tmp_path / "twin-out", tmp_path / "twin-default"),
            (tmp_path / "grid", tmp_path / "grid-out", tmp_path / "grid-default")]
    package_root = str(Path(surgeaccess.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])}
    args = [str(path) for data, out, _ in runs for path in (data, out)]
    done = subprocess.run([sys.executable, "-c", script, ",".join(blocked), *args], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("wrote 4 file(s)") == 2
    assert f"openssl loaded: {openssl}" in done.stdout
    for data, out, default in runs:
        assert cli.main(["run", "--data", str(data), "--out", str(default)]) == 0
        written = sorted(p.name for p in out.iterdir())
        assert written == sorted(p.name for p in default.iterdir())
        for name in written:
            assert (out / name).read_bytes() == (default / name).read_bytes(), name
