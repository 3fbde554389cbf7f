from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hybridplan
from hybridplan.cli import main
from hybridplan.scenarios import bundled_scenario_path
from hybridplan.simulate import MetricsReport


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


def test_malformed_field_named_in_error(tmp_path, capsys):
    cfg = write_config(tmp_path, mission={"alpha": 1.5})
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "mission" in err and "alpha" in err


def test_unknown_field_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, planner={"warp_drive": 1})
    assert main(["run", str(cfg)]) == 1
    assert "warp_drive" in capsys.readouterr().err


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


def test_compare_two_modes(tmp_path):
    a = write_config(tmp_path, name="a.json", mode="standard",
                     output_dir=str(tmp_path / "cmp"))
    b = write_config(tmp_path, name="b.json", mode="guided",
                     output_dir=str(tmp_path / "cmp"))
    assert main(["compare", str(a), str(b), "--no-timing",
                 "--output-dir", str(tmp_path / "cmp")]) == 0
    lines = (tmp_path / "cmp" / "comparison.csv").read_text().splitlines()
    assert lines[0].startswith("mode,n_planner_calls,t_max,t_cum,t_avg,cumulative_nodes")
    assert len(lines) == 3
    assert lines[1].startswith("standard,")
    assert lines[2].startswith("guided,")
    assert (tmp_path / "cmp" / "run_00_standard" / "metrics.csv").exists()
    assert (tmp_path / "cmp" / "run_01_guided" / "metrics.csv").exists()


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
