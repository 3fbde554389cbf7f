"""Closed-loop safety and liveness over a fixed list of small unknown worlds.

`WORLDS` random worlds (numpy seed `SEED`), each 20-30 m square with 2-8
boxes kept 4 m clear of the start and the goal and a 3-6 m sensor, are
driven in standard, guided, guided+extended and waypoint mode with the
mission and planner configs of the reference-stack test on random worlds.

- Safety: no driven footprint overlaps the truth map (criterion 8's
  rectangle rasterizer).
- The stop cause of every run is pinned in `tests/closed_loop_sweep.json`.
  A change that is meant to alter these runs refreshes it on purpose:

      PYTHONPATH=src:tests python tests/test_closed_loop_sweep.py

  rewrites the file from the current code.
- Liveness, a known defect (strict xfail): with a sensor range below about
  3.5 m the loop drives into cells its sensor has not seen, and its disk
  cover then finds the vehicle's own pose in collision.

The 120 runs take about 7 s on a 2-vCPU host.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from hybridplan.cli import MODES
from hybridplan.geometry import Pose2D
from hybridplan.grid import OCCUPIED
from hybridplan.mission import MissionConfig
from hybridplan.planner import PlannerConfig
from hybridplan.simulate import ScenarioSpec, run_scenario
from hybridplan.vehicle import VehicleSpec

from conftest import bordered_grid
from oracles import footprint_overlaps

PINNED_FILE = Path(__file__).resolve().parent / "closed_loop_sweep.json"
SEED, WORLDS = 2, 30
SWEEP_MODES = ("standard", "guided", "guided+extended", "waypoint")
VEH = VehicleSpec()


def sweep_world(rng: np.random.Generator) -> ScenarioSpec:
    """A bordered unknown world 20-30 m square at 0.15625 m with random
    boxes, none within 4 m of the start or the goal, and a 3-6 m sensor."""
    size = int(rng.integers(40, 61)) / 2.0
    truth = bordered_grid(size, size)
    start = Pose2D(4.0, float(rng.uniform(4.0, size - 4.0)), 0.0)
    goal = Pose2D(size - 5.0, float(rng.uniform(4.0, size - 4.0)), 0.0)
    for _ in range(int(rng.integers(2, 9))):
        x0, y0 = rng.uniform(1.0, size - 2.0, 2)
        x1, y1 = x0 + rng.uniform(0.3, 4.0), y0 + rng.uniform(0.3, 4.0)
        if all(math.hypot(min(max(p.x, x0), x1) - p.x, min(max(p.y, y0), y1) - p.y) > 4.0
               for p in (start, goal)):
            truth.set_box(x0, y0, x1, y1, OCCUPIED)
    return ScenarioSpec(truth, start, goal, known_env=False,
                        sensor_range=float(rng.uniform(3.0, 6.0)), n_rays=360,
                        max_sim_steps=200)


def sweep_runs() -> dict:
    """world id -> (sensor range, {mode: (stop cause, footprint overlaps)})."""
    rng = np.random.default_rng(SEED)
    mission = MissionConfig(s_w=10.0, s_lim=12.0, s_t=5.0, d_div=1.0, s_coll=10.0)
    planner = PlannerConfig(node_budget=20_000)
    out = {}
    for index in range(WORLDS):
        spec = sweep_world(rng)
        runs = {}
        for mode in SWEEP_MODES:
            run = run_scenario(spec, mission, planner, MODES[mode], VEH)
            runs[mode] = (run.report.stop_cause, footprint_overlaps(run.driven, spec.truth_map, VEH))
        out[f"{index:02d}"] = (spec.sensor_range, runs)
    return out


@pytest.fixture(scope="module")
def sweep():
    return sweep_runs()


def stop_causes(runs: dict) -> dict:
    return {mode: {world: modes[mode][0] for world, (_, modes) in runs.items()}
            for mode in SWEEP_MODES}


def test_sweep_footprints_never_overlap_the_truth(sweep):
    overlaps = {(world, mode): bad for world, (_, modes) in sweep.items()
                for mode, (_, bad) in modes.items() if bad}
    assert not overlaps


def test_sweep_stop_causes_pinned(sweep):
    assert stop_causes(sweep) == json.loads(PINNED_FILE.read_text(encoding="utf-8"))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a sensor range below about 3.5 m lets the loop step into unseen "
                          "cells, where the disk cover finds its own pose in collision")
def test_short_sensor_runs_never_stop_in_collision(sweep):
    short = {world: modes for world, (sensor_range, modes) in sweep.items()
             if 3.0 <= sensor_range < 4.0}
    assert len(short) >= 5
    stuck = [(world, mode) for world, modes in short.items()
             for mode, (cause, _) in modes.items() if cause.endswith("start in collision")]
    assert not stuck


if __name__ == "__main__":
    PINNED_FILE.write_text(json.dumps(stop_causes(sweep_runs()), indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
