from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hybridplan
from hybridplan import cli
from hybridplan.cli import main
from hybridplan.mission import MissionConfig
from hybridplan.planner import PlannerConfig
from hybridplan.scenarios import bundled_scenario_path
from hybridplan.simulate import MetricsReport
from hybridplan.vehicle import VehicleSpec


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "scenario": "bundled:smoke_small",
        "mode": "guided",
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_print_defaults_is_valid_json(capsys):
    assert main(["print-defaults"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mission"]["s_w"] == 55.0
    assert data["mission"]["s_lim"] == 60.0
    assert data["mission"]["d_div"] == 5.0
    assert data["mission"]["alpha"] == 0.5
    assert data["mission"]["s_coll"] == 20.0
    assert data["planner"]["xy_resolution"] == 0.625
    import math
    assert data["vehicle"]["max_steer"] == pytest.approx(math.radians(31.51))


def test_run_smoke_scenario(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["run", str(cfg), "--no-timing"]) == 0
    out = tmp_path / "out"
    for name in ("path.json", "metrics.csv", "events.log", "map.svg"):
        assert (out / name).exists(), name
    path_data = json.loads((out / "path.json").read_text())
    assert path_data["total_drive_length"] > 15.0
    assert path_data["segments"][0]["type"] == "drive"
    svg = (out / "map.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_metrics_csv_round_trips(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["run", str(cfg), "--no-timing"]) == 0
    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    header = lines[0].split(",")
    values = lines[1].split(",")
    assert header == list(MetricsReport.COLUMNS)
    for name, value in zip(header, values):
        if name == "reached":
            assert value in ("True", "False")
        else:
            parsed = float(value)
            assert repr(parsed) == value or str(int(parsed)) == value


def test_missing_scenario_file_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, scenario="nope/missing.scenario")
    assert main(["run", str(cfg)]) == 1
    assert "scenario" in capsys.readouterr().err


@pytest.mark.parametrize("overrides,named", [
    ({"mission": {"alpha": 1.5}}, ("mission", "alpha")),
    ({"planner": 5}, ("planner: must be an object",)),
    ({"vehicle": [1.0]}, ("vehicle: must be an object",)),
    ({"mission": None}, ("mission: must be an object",)),
], ids=["bad_value", "planner_number", "vehicle_list", "mission_null"])
def test_malformed_field_named_in_error(tmp_path, capsys, overrides, named):
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert all(part in err for part in named)


@pytest.mark.parametrize("overrides,named", [
    ({"planner": {"inflation_radius": float("nan")}}, "planner: inflation_radius must be non-negative"),
    ({"planner": {"collision_step": float("nan")}}, "planner: collision_step must be positive"),
    ({"planner": {"n_steer": 5.0}}, "planner: n_steer must be an integer"),
    ({"planner": {"node_budget": True}}, "planner: node_budget must be an integer"),
    ({"vehicle": {"n_disks": 2.5}}, "vehicle: n_disks must be an integer"),
    ({"vehicle": {"width": float("nan")}}, "vehicle: width must be positive"),
    ({"planner": {"xy_resolution": 0.3}},
     "planner: xy_resolution must be an integer multiple of the grid resolution 0.15625"),
    ({"mission": {"s_w": -5}}, "mission: s_w must be positive"),
    ({"mission": {"s_w": 0}}, "mission: s_w must be positive"),
    ({"mission": {"s_lim": float("nan")}}, "mission: s_lim must be non-negative"),
    ({"mission": {"s_t": -1.0}}, "mission: s_t must be non-negative"),
    ({"mission": {"d_div": float("nan")}}, "mission: d_div must be non-negative"),
    ({"mission": {"s_coll": -0.5}}, "mission: s_coll must be non-negative"),
    ({"planner": {"yaw_resolution": float("inf")}},
     "planner: yaw_resolution must be positive and finite"),
    ({"planner": {"arc_length": float("inf")}}, "planner: arc_length must be positive and finite"),
    ({"vehicle": {"length": float("inf")}}, "vehicle: length must be positive and finite"),
    ({"mission": {"s_w": float("inf")}}, "mission: s_w must be positive and finite"),
    ({"planner": {"arc_length": "x"}}, "planner: arc_length must be a number, got 'x'"),
    ({"mission": {"s_w": None}}, "mission: s_w must be a number, got None"),
    ({"vehicle": {"width": "2"}}, "vehicle: width must be a number, got '2'"),
], ids=["inflation_nan", "collision_step_nan", "n_steer_float", "node_budget_bool",
        "n_disks_fraction", "width_nan", "xy_resolution_off_grid", "s_w_negative",
        "s_w_zero", "s_lim_nan", "s_t_negative", "d_div_nan", "s_coll_negative",
        "yaw_resolution_inf", "arc_length_inf", "length_inf", "s_w_inf", "arc_length_string",
        "s_w_null", "width_string"])
def test_config_value_out_of_range_exits_1(tmp_path, capsys, overrides, named):
    """Values that used to end in a traceback, or (an infinite vehicle length)
    never end the run, are refused on load with the field named."""
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", str(cfg), "--no-timing"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("payload,named", [
    ({"start": [4.0, 8.0]}, "start must be 3 numbers"),
    ({"goal": [1.0, "east", 0.0]}, "goal must be 3 numbers"),
    ([1, 2], "top level must be an object"),
], ids=["start_two_numbers", "goal_not_numeric", "json_list"])
def test_malformed_scenario_file_exits_1(tmp_path, capsys, payload, named):
    shutil.copy(bundled_scenario_path("smoke_small").with_suffix(".map"), tmp_path)
    if isinstance(payload, dict):
        data = json.loads(bundled_scenario_path("smoke_small").read_text())
        payload = {**data, **payload}
    (tmp_path / "bad.scenario").write_text(json.dumps(payload))
    cfg = write_config(tmp_path, scenario="bad.scenario")
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scenario: ") and named in err


@pytest.mark.parametrize("payload,named", [
    ({"known_env": False, "n_rays": 4}, "n_rays must be at least 8"),
    ({"known_env": False, "sensor_range": 0}, "sensor_range must be finite and positive"),
    ({"drive_step": 0}, "drive_step must be finite and positive"),
    ({"drive_step": -0.5}, "drive_step must be finite and positive"),
    ({"max_sim_steps": 0}, "max_sim_steps must be at least 1"),
    ({"sensor_range": None}, "sensor_range must be a number"),
    ({"known_env": "false"}, "known_env must be true or false"),
    ({"map": "nan.map"}, "RESOLUTION must be a finite positive number, got 'nan'"),
    ({"map": 5}, "map must be a string, got 5"),
    ({"map": None}, "map must be a string, got None"),
    ({"map": "unknown.map"}, "truth_map must not contain unknown cells"),
    ({"map": "missing.map"}, "map file not found"),
    ({"n_rays": float("inf")}, "n_rays must be an integer, got inf"),
    ({"max_sim_steps": float("inf")}, "max_sim_steps must be an integer, got inf"),
], ids=["n_rays_4", "sensor_range_0", "drive_step_0", "drive_step_negative",
        "max_sim_steps_0", "sensor_range_null", "known_env_string", "map_resolution_nan",
        "map_number", "map_null", "map_unknown_cell", "map_missing", "n_rays_inf",
        "max_sim_steps_inf"])
def test_scenario_value_out_of_range_exits_1(tmp_path, capsys, payload, named):
    """Values that used to crash, idle to the step limit or (a string known_env)
    run as a known map are refused up front."""
    bundled = bundled_scenario_path("smoke_small")
    lines = bundled.with_suffix(".map").read_text().splitlines(keepends=True)
    (tmp_path / "smoke_small.map").write_text("".join(lines))
    (tmp_path / "nan.map").write_text("".join(
        [lines[0].rsplit(" ", 1)[0] + " nan\n"] + lines[1:]))
    (tmp_path / "unknown.map").write_text("".join(
        lines[:5] + ["?" + lines[5][1:]] + lines[6:]))
    data = {**json.loads(bundled.read_text()), **payload}
    (tmp_path / "bad.scenario").write_text(json.dumps(data))
    cfg = write_config(tmp_path, scenario="bad.scenario")
    assert main(["run", str(cfg), "--no-timing"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scenario: ") and named in err


SMOKE = bundled_scenario_path("smoke_small")
MUTABLE_FIELDS = ([(section, f.name) for section, cls in (("planner", PlannerConfig),
                                                         ("mission", MissionConfig),
                                                         ("vehicle", VehicleSpec))
                   for f in dataclasses.fields(cls)]
                  + [("scenario", key) for key in sorted(json.loads(SMOKE.read_text()))]
                  # the run config's top level; a string output_dir would write into
                  # the working directory
                  + [("", "scenario"), ("", "mode")])
# small values only: a huge n_rays, node budget or map size makes a run slow, not malformed
MUTANTS = (float("nan"), float("inf"), -float("inf"), -1, 0, "x", None, True, [1])


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(MUTABLE_FIELDS), value=st.sampled_from(MUTANTS))
def test_one_mutated_field_is_named_or_runs(field, value):
    """A valid smoke_small run with one config or scenario field replaced ends
    in exit 1 naming that field, or in a normal exit 0 or 2 (stop cause on
    stderr), never in an exception."""
    section, key = field
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        scenario = json.loads(SMOKE.read_text())
        shutil.copy(SMOKE.parent / scenario["map"], tmp)
        overrides = {"scenario": "mutant.scenario"}
        if section == "scenario":
            scenario[key] = value
        elif section:
            overrides[section] = {key: value}
        else:
            overrides[key] = value
        (tmp / "mutant.scenario").write_text(json.dumps(scenario))
        cfg = write_config(tmp, **overrides)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", str(cfg), "--no-timing"])
    err = err.getvalue()
    if code == 1:
        assert err.startswith("error: ") and re.search(rf"\b{key}\b", err), err
    elif code == 0:
        assert err == ""
    else:
        assert code == 2 and err.startswith("run failed: "), (code, err)


def _edit_text(name, change):
    def edit(tmp):
        path = tmp / name
        path.write_text(change(path.read_text()))
    return edit


def _edit_json(name, **fields):
    return _edit_text(name, lambda text: json.dumps({**json.loads(text), **fields}))


def _config_is_directory(tmp):
    (tmp / "cfg.json").unlink()
    (tmp / "cfg.json").mkdir()


def _config_not_utf8(tmp):
    (tmp / "cfg.json").write_bytes(b"\xff{}")


def _map_not_ascii(tmp):
    path = tmp / "smoke_small.map"
    header, rows = path.read_bytes().split(b"\n", 1)
    path.write_bytes(header + b"\n" + rows.replace(b".", b"\xe9", 1))   # a free cell


def _output_dir_is_file(tmp):
    (tmp / "out").write_text("")


def _output_dir_under_file(tmp):
    (tmp / "file").write_text("")
    _edit_json("cfg.json", output_dir=str(tmp / "file" / "out"))(tmp)


def _output_is_directory(name):
    def edit(tmp):
        (tmp / "out" / name).mkdir(parents=True)
    return edit


def _second_run_dir_is_file(tmp):
    (tmp / "out").mkdir()
    (tmp / "out" / "run_01_guided").write_text("")


def _map_resolution(value):
    return _edit_text("smoke_small.map", lambda text: text.replace(" 0.15625", f" {value}", 1))


@pytest.mark.parametrize("command,edit,named", [
    ("run", _config_not_utf8, "{tmp}/cfg.json: "),
    ("compare", _config_not_utf8, "{tmp}/cfg.json: "),
    ("run", _config_is_directory, "{tmp}/cfg.json: "),
    ("compare", _config_is_directory, "{tmp}/cfg.json: "),
    ("run", _edit_json("cfg.json", mode=["guided"]), "mode must be a string, got ['guided']"),
    ("run", _edit_json("cfg.json", output_dir=None), "output_dir must be a string, got None"),
    ("run", _edit_json("cfg.json", output_dir=5), "output_dir must be a string, got 5"),
    ("run", _edit_json("s.scenario", max_sim_steps=True),
     "max_sim_steps must be an integer, got True"),
    ("run", _edit_json("s.scenario", max_sim_steps=2.9), "max_sim_steps must be an integer, got 2.9"),
    ("run", _edit_json("s.scenario", n_rays=1440.9), "n_rays must be an integer, got 1440.9"),
    ("run", _edit_json("s.scenario", sensor_range="30"), "sensor_range must be a number, got '30'"),
    ("run", _edit_json("s.scenario", start=[True, 8.0, 0.0]), "start must be 3 numbers"),
    ("run", _edit_json("s.scenario", seed=1), "scenario: seed: unknown field"),
    ("run", _edit_text("smoke_small.map", lambda text: text.replace("192 ", "192.0 ", 1)),
     "{tmp}/smoke_small.map: W must be a positive integer, got '192.0'"),
    ("run", _edit_text("smoke_small.map", lambda text: text.replace("192 ", "-192 ", 1)),
     "{tmp}/smoke_small.map: W must be a positive integer, got '-192'"),
    ("run", _edit_text("smoke_small.map", lambda text: text.replace(" 102 ", " 0 ", 1)),
     "{tmp}/smoke_small.map: H must be a positive integer, got '0'"),
    ("run", _edit_text("smoke_small.map", lambda text: text + "." * 192 + "\n"),
     "{tmp}/smoke_small.map: expected 102 rows, found 103"),
    ("run", _map_resolution("abc"),
     "{tmp}/smoke_small.map: RESOLUTION must be a finite positive number, got 'abc'"),
    ("run", _map_resolution("nan"),
     "{tmp}/smoke_small.map: RESOLUTION must be a finite positive number, got 'nan'"),
    ("run", _map_resolution("0.0"),
     "{tmp}/smoke_small.map: RESOLUTION must be a finite positive number, got '0.0'"),
    ("run", _map_not_ascii, "{tmp}/smoke_small.map: not ASCII: byte 0xe9 at offset "),
    ("run", _output_dir_is_file, "output_dir: [Errno 17] File exists: '{tmp}/out'"),
    ("compare", _output_dir_is_file, "output_dir: [Errno 20] Not a directory: '{tmp}/out/"),
    ("run", _output_dir_under_file, "output_dir: [Errno 20] Not a directory: '{tmp}/file/out'"),
    ("compare", _output_dir_under_file,
     "output_dir: [Errno 20] Not a directory: '{tmp}/file/out/"),
    ("run", _output_is_directory("path.json"),
     "output_dir: [Errno 21] Is a directory: '{tmp}/out/path.json'"),
    ("compare", _output_is_directory("comparison.csv"),
     "output_dir: [Errno 21] Is a directory: '{tmp}/out/comparison.csv'"),
    ("compare", _second_run_dir_is_file,
     "output_dir: [Errno 17] File exists: '{tmp}/out/run_01_guided'"),
], ids=["config_not_utf8", "compare_config_not_utf8", "config_directory",
        "compare_config_directory", "mode_list", "output_dir_null", "output_dir_number",
        "max_sim_steps_true", "max_sim_steps_fraction", "n_rays_fraction",
        "sensor_range_string", "start_bool", "scenario_unknown_key", "map_width_float",
        "map_width_negative", "map_height_0", "map_extra_row", "map_resolution_word",
        "map_resolution_nan", "map_resolution_0", "map_not_ascii", "output_dir_file",
        "compare_output_dir_file", "output_dir_under_file", "compare_output_dir_under_file",
        "output_file_directory", "compare_output_file_directory",
        "compare_second_run_dir_file"])
def test_malformed_input_is_named(tmp_path, capsys, monkeypatch, command, edit, named):
    """Inputs that used to run on a cast or ignored value, to end in a
    traceback, or to exit 1 without naming the map file, exit 1 naming the
    field or the file.  Each is found before the first mission: an output
    file that is a directory, a run directory of `compare` past the first
    and an unwritable comparison.csv included."""
    monkeypatch.chdir(tmp_path)          # keeps a run into output_dir "None" or "5" in tmp_path
    missions, run_scenario = [], cli.run_scenario
    monkeypatch.setattr(cli, "run_scenario",
                        lambda *args: missions.append(args) or run_scenario(*args))
    shutil.copy(SMOKE, tmp_path / "s.scenario")
    shutil.copy(SMOKE.with_suffix(".map"), tmp_path)
    cfg = write_config(tmp_path, scenario="s.scenario")
    edit(tmp_path)
    argv = [command, str(cfg)] + ([str(cfg)] if command == "compare" else [])
    assert main(argv + ["--no-timing"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named.format(tmp=tmp_path) in err, err
    assert not missions


def test_unknown_bundled_scenario_lists_the_shipped_ones(tmp_path, capsys):
    cfg = write_config(tmp_path, scenario="bundled:nope")
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scenario: no bundled scenario 'nope'; available: [")
    assert "'smoke_small'" in err and "'unknown_large'" in err


def test_unknown_field_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, planner={"warp_drive": 1})
    assert main(["run", str(cfg)]) == 1
    assert "warp_drive" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["seed", "vehicle.model_switch_time",
                                   "planner.analytic_period", "mission.nav_mode"])
def test_seed_is_not_a_config_field(field, tmp_path, capsys):
    """Deleted fields are rejected by name and left out of the defaults."""
    section, _, name = field.rpartition(".")
    cfg = write_config(tmp_path, **({section: {name: 1}} if section else {name: 0}))
    assert main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {field}: unknown field\n"
    assert main(["print-defaults"]) == 0
    defaults = json.loads(capsys.readouterr().out)
    assert name not in (defaults[section] if section else defaults)


def test_unreachable_goal_exits_2(tmp_path, capsys):
    """Standard mode cannot turn around on the narrow plate."""
    cfg = write_config(tmp_path, scenario="bundled:plate_corridor_67",
                      mode="standard")
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == "run failed: planner failure: no path\n"


def test_step_limit_named_on_exit_2(tmp_path, capsys):
    bundled = bundled_scenario_path("smoke_small")
    data = json.loads(bundled.read_text())
    data["max_sim_steps"] = 3
    (tmp_path / "short.scenario").write_text(json.dumps(data))
    shutil.copy(bundled.parent / data["map"], tmp_path / data["map"])
    cfg = write_config(tmp_path, scenario="short.scenario")
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == "run failed: step limit: 3 steps\n"


def test_vehicle_that_never_moves_exits_2(tmp_path, capsys):
    """An exploration run that never drives still draws its belief from the start pose."""
    bundled = bundled_scenario_path("smoke_small")
    data = json.loads(bundled.read_text())
    data["known_env"] = False
    data["start"] = [0.3, 0.3, 0.0]         # inside the corner wall
    (tmp_path / "stuck.scenario").write_text(json.dumps(data))
    shutil.copy(bundled.parent / data["map"], tmp_path / data["map"])
    cfg = write_config(tmp_path, scenario="stuck.scenario")
    assert main(["run", str(cfg), "--no-timing"]) == 2
    assert capsys.readouterr().err == "run failed: planner failure: start in collision\n"
    assert json.loads((tmp_path / "out" / "path.json").read_text())["total_drive_length"] == 0.0
    assert (tmp_path / "out" / "map.svg").read_text().startswith("<svg")


def test_compare_two_modes(tmp_path):
    """Standard and guided, and the paper's comparison of early-stop navigation
    with the waypoint baseline: one row per run, equal to its metrics.csv row."""
    modes = ("standard", "guided", "waypoint")
    configs = [str(write_config(tmp_path, name=f"{mode}.json", mode=mode,
                                output_dir=str(tmp_path / "cmp"))) for mode in modes]
    assert main(["compare", *configs, "--no-timing",
                 "--output-dir", str(tmp_path / "cmp")]) == 0
    lines = (tmp_path / "cmp" / "comparison.csv").read_text().splitlines()
    assert lines[0] == "mode," + ",".join(MetricsReport.COLUMNS)
    assert len(lines) == 4
    for line, mode, run in zip(lines[1:], modes,
                               ("run_00_standard", "run_01_guided", "run_02_waypoint")):
        metrics = (tmp_path / "cmp" / run / "metrics.csv").read_text().splitlines()
        assert metrics[0] == ",".join(MetricsReport.COLUMNS)
        assert line == f"{mode},{metrics[1]}"


def test_compare_requires_two_configs(tmp_path, capsys):
    assert main(["compare"]) == 1
    a = write_config(tmp_path, name="only.json")
    assert main(["compare", str(a)]) == 1


def test_repeat_runs_byte_identical(tmp_path):
    cfg = write_config(tmp_path, name="r1.json", output_dir=str(tmp_path / "o1"))
    cfg2 = write_config(tmp_path, name="r2.json", output_dir=str(tmp_path / "o2"))
    assert main(["run", str(cfg), "--no-timing"]) == 0
    assert main(["run", str(cfg2), "--no-timing"]) == 0
    for name in ("path.json", "events.log"):
        b1 = (tmp_path / "o1" / name).read_bytes()
        b2 = (tmp_path / "o2" / name).read_bytes()
        assert b1 == b2, name


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path)
    # the child imports the package the tests import, installed or not
    src = str(Path(hybridplan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "hybridplan", "run", str(cfg),
                           "--no-timing"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
