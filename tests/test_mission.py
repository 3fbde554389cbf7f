from __future__ import annotations

import numpy as np
import pytest

from hybridplan.geometry import Pose2D
from hybridplan.grid import OCCUPIED, UNKNOWN, OccupancyGrid, raytrace_reveal
from hybridplan.mission import (MissionConfig, MissionState, NAV_EARLY_STOP,
                                NAV_NONE, check_path_collision,
                                compute_replan_start, mission_tick)
from hybridplan.planner import PlannerConfig, STANDARD, plan
from hybridplan.vehicle import make_disk_set, ushift_spec

from conftest import bordered_grid, pose_close

VEH = ushift_spec()
CFG = PlannerConfig()


def straight_path(length=60.0):
    g = bordered_grid(max(length + 20, 40), 12)
    path, _ = plan(g, Pose2D(5, 6, 0), Pose2D(5 + length, 6, 0), VEH, CFG)
    return g, path


# -------------------------------------------------------- collision checking

def test_clear_path_reports_none():
    g, path = straight_path(30.0)
    assert check_path_collision(path, 0.0, g, make_disk_set(VEH)) is None


def test_wall_ahead_distance():
    g, path = straight_path(30.0)
    g.set_box(17.0, 0.5, 18.0, 11.5, OCCUPIED)   # wall across the corridor
    s = check_path_collision(path, 0.0, g, make_disk_set(VEH))
    assert s is not None
    # the front disk reaches the wall cushion well before the wall itself
    expected = 17.0 - (5.0 + VEH.length - VEH.rear_overhang + make_disk_set(VEH).radius)
    assert s == pytest.approx(expected, abs=1.0)


def test_wall_at_pose_is_immediate():
    g, path = straight_path(30.0)
    g.set_box(5.5, 0.5, 7.0, 11.5, OCCUPIED)
    s = check_path_collision(path, 0.0, g, make_disk_set(VEH))
    assert s == pytest.approx(0.0, abs=0.2)


def test_from_s_offsets_the_result():
    g, path = straight_path(30.0)
    g.set_box(20.0, 0.5, 21.0, 11.5, OCCUPIED)
    s0 = check_path_collision(path, 0.0, g, make_disk_set(VEH))
    s5 = check_path_collision(path, 5.0, g, make_disk_set(VEH))
    assert s0 is not None and s5 is not None
    assert s0 - s5 == pytest.approx(5.0, abs=0.2)


# ------------------------------------------------------------- replan starts

def make_state(path, progress=0.0):
    state = MissionState(vehicle_pose=path.pose_at(progress), goal=Pose2D(0, 0, 0))
    state.current_path = path
    state.progress_s = progress
    return state


def test_replan_start_spec_case_collision():
    _, path = straight_path(80.0)
    state = make_state(path)
    start, s_plan = compute_replan_start(state, 20.0, None, 0.5)
    assert s_plan == pytest.approx(10.0)
    assert pose_close(start, path.pose_at(10.0))


def test_replan_start_spec_case_remaining_only():
    _, path = straight_path(60.0)
    state = make_state(path, progress=path.total_drive_length - 60.0)
    start, s_plan = compute_replan_start(state, None, None, 0.5)
    assert s_plan == pytest.approx(30.0, abs=0.01)


def test_replan_start_divergence_wins():
    _, path = straight_path(80.0)
    state = make_state(path)
    _, s_plan = compute_replan_start(state, 20.0, 14.0, 0.5)
    assert s_plan == pytest.approx(7.0)


def test_replan_start_never_behind_vehicle():
    _, path = straight_path(40.0)
    state = make_state(path, progress=10.0)
    start, s_plan = compute_replan_start(state, 0.0, None, 0.5)
    assert s_plan == 0.0
    assert pose_close(start, path.pose_at(10.0))


def test_replan_start_requires_path():
    state = MissionState(vehicle_pose=Pose2D(0, 0, 0), goal=Pose2D(1, 1, 0))
    with pytest.raises(ValueError, match="nothing to replan"):
        compute_replan_start(state, None, None, 0.5)


# --------------------------------------------------------------- tick logic

def tick(state, belief, nav=NAV_NONE, **kw):
    return mission_tick(state, belief, MissionConfig(nav_mode=nav, **kw), CFG,
                        STANDARD, VEH)


def test_route_map_not_reused_across_grids_at_same_version():
    """A copied grid restarts at version 0; the route map must follow the grid."""
    open_map = OccupancyGrid.filled(320, 96, 0.15625)
    state = MissionState(vehicle_pose=Pose2D(5, 7, 0), goal=Pose2D(45, 7, 0))
    tick(state, open_map)
    assert state.distance_to_goal == pytest.approx(40.0, abs=1.0)
    walled = OccupancyGrid.filled(320, 96, 0.15625)
    walled.set_box(24.0, 0.0, 26.0, 12.0, OCCUPIED)   # detour around the wall's top
    walled = walled.copy()
    assert walled.version == open_map.version == 0
    tick(state, walled)
    assert state.distance_to_goal > 45.0


def test_known_static_map_replans_once():
    g = bordered_grid(60, 14)
    state = MissionState(vehicle_pose=Pose2D(5, 7, 0), goal=Pose2D(50, 7, 0))
    first = tick(state, g)
    assert first.replanned and first.cause == "initial"
    # drive along and keep ticking: no further replans in a static known map
    for progress in np.arange(0.5, 30.0, 0.5):
        state.vehicle_pose = state.current_path.pose_at(progress)
        state.progress_s = progress
        state.odometer = progress
        result = tick(state, g)
        assert result.status == "keep_driving"


def test_goal_reached_tolerance():
    g = bordered_grid(40, 14)
    goal = Pose2D(30, 7, 0)
    state = MissionState(vehicle_pose=Pose2D(30.4, 7.0, 0.05), goal=goal)
    assert tick(state, g).status == "goal_reached"
    state = MissionState(vehicle_pose=Pose2D(28.0, 7.0, 0.0), goal=goal)
    assert tick(state, g).status != "goal_reached"


def test_collision_trigger_and_continuity():
    truth = bordered_grid(60, 22)
    state = MissionState(vehicle_pose=Pose2D(5, 7, 0), goal=Pose2D(55, 7, 0))
    assert tick(state, truth).replanned
    old_path = state.current_path
    # a wall drops onto the path 15 m ahead, leaving a detour gap at the top
    truth.set_box(20.0, 0.5, 21.5, 15.0, OCCUPIED)
    state.vehicle_pose = old_path.pose_at(2.0)
    state.progress_s = 2.0
    state.odometer = 2.0
    result = tick(state, truth)
    assert result.replanned and result.cause == "collision"
    assert result.s_coll_found is not None and result.s_coll_found <= 20.0
    # retained prefix keeps the vehicle's pose chain continuous
    assert pose_close(state.current_path.pose_at(0.0), old_path.pose_at(2.0),
                      pos_tol=1e-6)


def test_divergence_trigger_on_reveal():
    truth = bordered_grid(60, 30)
    truth.set_box(38.0, 0.5, 39.5, 16.0, OCCUPIED)   # wall the belief cannot see yet
    belief = OccupancyGrid.filled(truth.width_cells, truth.height_cells,
                                  truth.resolution, UNKNOWN)
    state = MissionState(vehicle_pose=Pose2D(5, 10, 0), goal=Pose2D(55, 10, 0))
    raytrace_reveal(truth, belief, state.vehicle_pose, 28.0, 1440)
    first = tick(state, belief, nav=NAV_EARLY_STOP)
    assert first.replanned and first.cause == "initial"
    causes = []
    for step in range(1, 120):
        progress = step * 0.5
        state.vehicle_pose = state.current_path.pose_at(state.progress_s + 0.5)
        state.progress_s += 0.5
        state.odometer += 0.5
        raytrace_reveal(truth, belief, state.vehicle_pose, 28.0, 1440)
        result = tick(state, belief, nav=NAV_EARLY_STOP)
        if result.status == "failed":
            pytest.fail(f"mission failed: {result.reason}")
        if result.replanned:
            causes.append(result.cause)
            state.progress_s = 0.0
            if result.cause == "divergence":
                assert result.s_div_found is not None
                break
    assert "divergence" in causes


def test_refresh_cadence_in_early_stop_mode():
    g = bordered_grid(200, 14)
    state = MissionState(vehicle_pose=Pose2D(5, 7, 0), goal=Pose2D(193, 7, 0))
    assert tick(state, g, nav=NAV_EARLY_STOP).replanned
    replans = 0
    driven = 0.0
    while driven < 30.0:
        state.vehicle_pose = state.current_path.pose_at(state.progress_s + 0.5)
        state.progress_s += 0.5
        state.odometer += 0.5
        driven += 0.5
        result = tick(state, g, nav=NAV_EARLY_STOP)
        if result.replanned:
            assert result.cause == "refresh"
            state.progress_s = 0.0
            replans += 1
    assert replans == 3  # every s_t = 10 m


def test_failure_propagates_reason():
    g = bordered_grid(40, 14)
    g.set_box(18.0, 0.5, 20.0, 13.5, OCCUPIED)   # no way east
    state = MissionState(vehicle_pose=Pose2D(5, 7, 0), goal=Pose2D(35, 7, 0))
    result = tick(state, g)
    assert result.status == "failed"
    assert result.reason in ("no 2D route", "no path", "goal blocked")
