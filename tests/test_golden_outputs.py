"""Byte-stable run outputs: sha256 digests of every file `plan run --no-timing`
writes, for a set of bundled scenarios and modes, against stored values.

The same file pins the driven path and the replan events of the two
`unknown_large` runs that `test_acceptance.py`'s `large_runs` fixture makes
(keys `large_runs:...`).

A run inside `oracles.reference_stack()`, where every derived field is built
from empty, every route map is flooded by the heap Dijkstra with the
reference successor table, every route is walked from scratch, every tick checks its
path in full, every search keeps one object per node and checks every
child, every analytic attempt checks each candidate whole and every
reveal is the masked all-rays loop, writes the same bytes as the shipped
run, where each field and route map is updated from the one before, a route is cut from
the previous tick's, a clear verdict is carried and an analytic attempt
checks its candidates' prefixes first; that check needs no stored digest,
so it also catches a regression that lands together with a refresh.  It
runs on three bundled runs and on random small unknown worlds.

A change that is meant to alter these outputs refreshes the stored digests
on purpose:

    PYTHONPATH=src python tests/test_golden_outputs.py

rewrites `tests/golden_outputs.json` from the current code.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hybridplan import cli, mission, planner, simulate
from hybridplan.cli import MODES, main
from hybridplan.geometry import Pose2D
from hybridplan.grid import OCCUPIED
from hybridplan.mission import MissionConfig
from hybridplan.planner import PlannerConfig
from hybridplan.simulate import ScenarioSpec

from conftest import bordered_grid
from oracles import (analytic_expansions_reference, plan_reference, raytrace_reveal_reference,
                     reference_stack)

GOLDEN_FILE = Path(__file__).resolve().parent / "golden_outputs.json"
OUTPUT_FILES = ("path.json", "events.log", "metrics.csv", "map.svg")
ALL_MODES = ("standard", "guided", "extended", "guided+extended")
CASES = ([(sc, mode) for sc in ("smoke_small", "plate_corridor_67", "plate_corridor_84")
          for mode in ALL_MODES]
         + [("known_large", "standard"), ("known_large", "extended"),
            ("known_large", "guided"), ("known_large", "guided+extended"),
            ("reveal_divergence", "standard"), ("reveal_divergence", "guided"),
            ("reveal_divergence", "extended"), ("reveal_divergence", "guided+extended")]
         + [(sc, mode) for sc in ("smoke_small", "reveal_divergence")
            for mode in ("waypoint", "waypoint+extended")])


def case_id(scenario: str, mode: str) -> str:
    return f"{scenario}/{mode}"


def run_digests(scenario: str, mode: str, workdir: Path) -> dict:
    """Exit code and per-file sha256 of one `plan run --no-timing`."""
    out = workdir / "out"
    cfg = workdir / "cfg.json"
    workdir.mkdir(parents=True, exist_ok=True)
    cfg.write_text(json.dumps({"scenario": f"bundled:{scenario}", "mode": mode,
                               "output_dir": str(out)}))
    code = main(["run", str(cfg), "--no-timing"])
    files = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
             for name in OUTPUT_FILES}
    return {"exit": code, "sha256": files}


def large_run_id(env: str, label: str) -> str:
    return f"large_runs:{env}_large/{label}"


def path_and_events_digests(run: simulate.Run) -> dict:
    """sha256 of the path.json and events.log text of a run, without timing."""
    texts = run.texts(False)
    return {name: hashlib.sha256(texts[name].encode()).hexdigest()
            for name in ("path.json", "events.log")}


@pytest.mark.parametrize("scenario,mode", CASES, ids=[case_id(*c) for c in CASES])
def test_outputs_match_stored_digests(scenario, mode, tmp_path, capsys):
    expected = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))[case_id(scenario, mode)]
    assert run_digests(scenario, mode, tmp_path) == expected


# ids: a bare mode runs reveal_divergence
@pytest.mark.parametrize("scenario,mode", [
    pytest.param("reveal_divergence", "guided", id="guided"),
    pytest.param("reveal_divergence", "guided+extended", id="guided+extended"),
    pytest.param("smoke_small", "guided+extended", id="smoke_small/guided+extended"),
])
def test_reference_stack_writes_the_shipped_bytes(scenario, mode, tmp_path, capsys, floods):
    shipped = run_digests(scenario, mode, tmp_path / "shipped")
    n = len(floods)
    with reference_stack():
        # the mission's reveals and the map.svg replay's
        assert simulate.raytrace_reveal is cli.raytrace_reveal is raytrace_reveal_reference
        assert planner.analytic_expansions is analytic_expansions_reference
        assert mission.plan is plan_reference
        reference = run_digests(scenario, mode, tmp_path / "reference")
    assert floods[n:] == []
    if scenario == "reveal_divergence":   # smoke_small's map is known: one flood, no repair
        assert "repair" in floods[:n]
    assert reference == shipped


@st.composite
def small_unknown_worlds(draw):
    """A bordered unknown world 20-30 m square at 0.15625 m with random boxes,
    none within 4 m of the start or the goal, and a short sensor."""
    size = draw(st.integers(40, 60)) / 2.0
    truth = bordered_grid(size, size)
    start = Pose2D(4.0, draw(st.floats(4.0, size - 4.0)), 0.0)
    goal = Pose2D(size - 5.0, draw(st.floats(4.0, size - 4.0)), 0.0)
    for _ in range(draw(st.integers(2, 8))):
        x0, y0 = draw(st.floats(1.0, size - 2.0)), draw(st.floats(1.0, size - 2.0))
        x1, y1 = x0 + draw(st.floats(0.3, 4.0)), y0 + draw(st.floats(0.3, 4.0))
        if all(math.hypot(min(max(p.x, x0), x1) - p.x, min(max(p.y, y0), y1) - p.y) > 4.0
               for p in (start, goal)):
            truth.set_box(x0, y0, x1, y1, OCCUPIED)
    return ScenarioSpec(truth, start, goal, known_env=False,
                        sensor_range=draw(st.floats(3.0, 6.0)), n_rays=360, max_sim_steps=80)


def closed_loop_outputs(spec: ScenarioSpec, mode: str) -> tuple:
    """The path.json, metrics.csv and events.log text and the stop cause of one run."""
    run = simulate.run_scenario(
        spec, MissionConfig(s_w=10.0, s_lim=12.0, s_t=5.0, d_div=1.0, s_coll=10.0),
        PlannerConfig(node_budget=20_000), MODES[mode])
    return run.texts(False), run.report.stop_cause


@settings(max_examples=12, deadline=None, derandomize=True)
@given(small_unknown_worlds())
def test_reference_stack_matches_shipped_on_random_worlds(spec):
    """Random closed loops, guided and guided+extended, write the same path,
    events and metrics row as shipped and inside `reference_stack()`, where
    every derived value is built from empty: a cache that goes stale in a
    geometry the bundled runs lack (an obstacle revealed next to the goal or
    on the path's prefix, a repair that cuts the route) shows here."""
    for mode in ("guided", "guided+extended"):
        shipped = closed_loop_outputs(spec, mode)
        with reference_stack():
            assert closed_loop_outputs(spec, mode) == shipped


if __name__ == "__main__":
    golden = {}
    for scenario, mode in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            golden[case_id(scenario, mode)] = run_digests(scenario, mode, Path(tmp))
        print(case_id(scenario, mode), golden[case_id(scenario, mode)]["exit"], file=sys.stderr)
    from test_acceptance import large_run
    for label in ("std", "guided"):
        golden[large_run_id("unknown", label)] = path_and_events_digests(
            large_run("unknown", label))
        print(large_run_id("unknown", label), file=sys.stderr)
    GOLDEN_FILE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
