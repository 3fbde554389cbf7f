"""The bundled scenarios are the shipped `data/*.scenario` files: each one
loads, and the golden digests pin what it runs."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

import hybridplan
from hybridplan.grid import UNKNOWN
from hybridplan.vehicle import CollisionChecker, VehicleSpec

from conftest import bundled
from test_golden_outputs import CASES, GOLDEN_FILE

NAMES = sorted(p.stem for p in (Path(hybridplan.__file__).parent / "data").glob("*.scenario"))


def test_data_directory_ships_scenarios():
    assert NAMES


@pytest.mark.parametrize("name", NAMES)
def test_scenario_endpoints_are_valid(name):
    spec = bundled(name)
    truth = spec.truth_map
    assert not (truth.cells == UNKNOWN).any()
    checker = CollisionChecker(truth, VehicleSpec().disks)
    assert not checker.pose_blocked(spec.start.x, spec.start.y, spec.start.yaw)
    assert not checker.pose_blocked(spec.goal.x, spec.goal.y, spec.goal.yaw)


@pytest.mark.parametrize("name", NAMES)
def test_bundled_scenario_is_pinned(name):
    """The files are the only source of a bundled scenario, so some stored
    digest must cover each one: a golden case or a `large_runs:` key."""
    golden = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
    pinned = {scenario for scenario, _ in CASES}
    pinned |= {key.split(":", 1)[1].split("/", 1)[0]
               for key in golden if key.startswith("large_runs:")}
    assert name in pinned
