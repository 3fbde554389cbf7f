"""The paper's navigation comparison, pinned: known_large and unknown_large,
each driven in standard, guided and waypoint mode with the default configs
that `plan run` uses.

Each run's deterministic counters (planner calls, cumulative nodes, driven
length, direction switches, rotations, whether the goal was reached, and the
calls and nodes of each replan cause) are stored in
`tests/navigation_comparison.json`.  The test prints the wall-time
(`t_cum`) and node ratios, guided to standard and waypoint to guided, and
gates nothing on wall time.  A change that is meant to alter these runs
refreshes the stored values on purpose:

    PYTHONPATH=src python tests/test_navigation.py

rewrites the file from the current code.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from hybridplan.cli import MODES
from hybridplan.mission import MissionConfig
from hybridplan.planner import PlannerConfig
from hybridplan.simulate import run_scenario
from hybridplan.vehicle import VehicleSpec

from conftest import bundled

PINNED_FILE = Path(__file__).resolve().parent / "navigation_comparison.json"
RUNS = [(scenario, mode) for scenario in ("known_large", "unknown_large")
        for mode in ("standard", "guided", "waypoint")]
SLOW = {("known_large", "waypoint")}      # 32-42 s; the others take 1-15 s
RATIOS = {"guided": "standard", "waypoint": "guided"}


def navigation_run(scenario: str, mode: str):
    return run_scenario(bundled(scenario), MissionConfig(), PlannerConfig(),
                        MODES[mode], VehicleSpec())


@pytest.fixture(scope="module")
def runs():
    """navigation_run, driven once per run and module."""
    done = {}

    def run(scenario: str, mode: str):
        if (scenario, mode) not in done:
            done[scenario, mode] = navigation_run(scenario, mode)
        return done[scenario, mode]

    return run


def counters(run) -> dict:
    report = run.report
    replans = {}
    for e in run.events:
        calls, nodes = replans.get(e.cause, (0, 0))
        replans[e.cause] = [calls + 1, nodes + e.nodes]
    return {"planner_calls": report.n_planner_calls, "cumulative_nodes": report.cumulative_nodes,
            "driven_m": report.length, "direction_switches": report.n_direction_switches,
            "rotations": report.n_rotations, "reached": report.reached, "replans": replans}


def run_id(scenario: str, mode: str) -> str:
    return f"{scenario}/{mode}"


@pytest.mark.parametrize("scenario,mode", [
    pytest.param(*run, id=run_id(*run), marks=[pytest.mark.slow] if run in SLOW else [])
    for run in RUNS])
def test_navigation_comparison_pinned(scenario, mode, runs):
    expected = json.loads(PINNED_FILE.read_text(encoding="utf-8"))[run_id(scenario, mode)]
    assert counters(runs(scenario, mode)) == expected
    if mode in RATIOS:
        report, base = runs(scenario, mode).report, runs(scenario, RATIOS[mode]).report
        print(f"{scenario}: {mode}/{RATIOS[mode]} t_cum {report.t_cum:.3f}/{base.t_cum:.3f} s"
              f" = {report.t_cum / base.t_cum:.3f}, nodes {report.cumulative_nodes}"
              f"/{base.cumulative_nodes} = {report.cumulative_nodes / base.cumulative_nodes:.3f}")


# With the large maps' tighter inflation (`inflation_radius` 0.3, as the
# acceptance suite's `LARGE_MAP_CFG`), the route passes gaps that the
# footprint does not, and the waypose at its first call lies in collision.
# The mission moves a blocked waypose back along the route to a free pose
# (`mission.free_waypose`), so the planner is never handed one.
def test_waypoint_goal_is_free_under_tight_inflation():
    report = run_scenario(bundled("unknown_large"), MissionConfig(),
                          PlannerConfig(inflation_radius=0.3), MODES["waypoint"],
                          VehicleSpec()).report
    assert report.stop_cause != "planner failure: goal in collision"


if __name__ == "__main__":
    pinned = {run_id(*run): counters(navigation_run(*run)) for run in RUNS}
    PINNED_FILE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
