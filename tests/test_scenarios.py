from __future__ import annotations

import numpy as np
import pytest

from hybridplan.grid import UNKNOWN
from hybridplan.scenarios import BUILDERS, bundled_scenario_path, load_scenario
from hybridplan.vehicle import CollisionChecker, VehicleSpec, make_disk_set


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_bundled_files_match_builders(name):
    built = BUILDERS[name]()
    shipped = load_scenario(bundled_scenario_path(name))
    assert np.array_equal(built.truth_map.cells, shipped.truth_map.cells)
    assert shipped.truth_map.resolution == built.truth_map.resolution
    assert shipped.start == built.start
    assert shipped.goal == built.goal
    assert shipped.known_env == built.known_env
    assert shipped.sensor_range == built.sensor_range
    assert shipped.n_rays == built.n_rays


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_scenario_endpoints_are_valid(name):
    spec = BUILDERS[name]()
    truth = spec.truth_map
    assert not (truth.cells == UNKNOWN).any()
    checker = CollisionChecker(truth, make_disk_set(VehicleSpec()))
    assert not checker.pose_blocked(spec.start.x, spec.start.y, spec.start.yaw)
    assert not checker.pose_blocked(spec.goal.x, spec.goal.y, spec.goal.yaw)
