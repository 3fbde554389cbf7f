from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridplan import grid as grid_module, heuristic, mission, planner, simulate
from hybridplan.cli import MODES
from hybridplan.geometry import Pose2D
from hybridplan.grid import FREE, OCCUPIED, UNKNOWN, OccupancyGrid, raytrace_reveal
from hybridplan.heuristic import AStarPath, extract_astar_path, waypose_at
from hybridplan.mission import (MissionConfig, MissionState, carried_path_collision,
                                check_path_collision, compute_replan_start, free_waypose,
                                mission_tick)
from hybridplan.planner import PathBuilder, PlannerConfig, RotationSegment, field_cap, plan
from hybridplan.vehicle import CollisionChecker, VehicleSpec

from conftest import bordered_grid, bundled, counted_writes, pose_close
from oracles import build_distance_map_reference, extract_astar_path_reference

VEH = VehicleSpec()
WIDE = VehicleSpec(width=3.4)    # disk radius 1.83 m, against VEH's 1.20 m
CFG = PlannerConfig()


def straight_path(length=60.0):
    g = bordered_grid(max(length + 20, 40), 12)
    path, _ = plan(g, Pose2D(5, 6, 0), Pose2D(5 + length, 6, 0), VEH, CFG)
    return g, path


# -------------------------------------------------------- collision checking

def test_clear_path_reports_none():
    g, path = straight_path(30.0)
    assert check_path_collision(path, 0.0, g, VEH.disks) is None


def test_wall_ahead_distance():
    g, path = straight_path(30.0)
    g.set_box(17.0, 0.5, 18.0, 11.5, OCCUPIED)   # wall across the corridor
    s = check_path_collision(path, 0.0, g, VEH.disks)
    assert s is not None
    # the front disk reaches the wall cushion well before the wall itself
    expected = 17.0 - (5.0 + VEH.length - VEH.rear_overhang + VEH.disks.radius)
    assert s == pytest.approx(expected, abs=1.0)


def test_wall_at_pose_is_immediate():
    g, path = straight_path(30.0)
    g.set_box(5.5, 0.5, 7.0, 11.5, OCCUPIED)
    s = check_path_collision(path, 0.0, g, VEH.disks)
    assert s == pytest.approx(0.0, abs=0.2)


def test_from_s_offsets_the_result():
    g, path = straight_path(30.0)
    g.set_box(20.0, 0.5, 21.0, 11.5, OCCUPIED)
    s0 = check_path_collision(path, 0.0, g, VEH.disks)
    s5 = check_path_collision(path, 5.0, g, VEH.disks)
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


def test_replan_start_before_a_pending_leading_rotation_is_the_vehicle():
    """On a path that opens with a rotation still to do, s_coll 0 gives s_plan
    0 and the vehicle's pre-rotation pose, not the path's pose at 0, which is
    past the rotation."""
    builder = PathBuilder(Pose2D(5, 10, 0))
    builder.add_rotation(math.pi / 2)
    for i in range(1, 9):
        builder.add_drive_sample(5, 10 + i * 0.5, math.pi / 2, 0.0, 1)
    path = builder.finish()
    state = make_state(path)
    state.vehicle_pose = Pose2D(5, 10, 0)
    assert compute_replan_start(state, 0.0, None, 0.5) == (Pose2D(5, 10, 0), 0.0)


def test_replan_start_requires_path():
    state = MissionState(vehicle_pose=Pose2D(0, 0, 0), goal=Pose2D(1, 1, 0))
    with pytest.raises(ValueError, match="nothing to replan"):
        compute_replan_start(state, None, None, 0.5)


# --------------------------------------------------------------- tick logic

def tick(state, belief, mode="standard", **kw):
    return mission_tick(state, belief, MissionConfig(**kw), CFG, MODES[mode], VEH)


def test_route_map_not_reused_across_grids_at_same_version():
    """A copy and a grid that no write has touched since it was made are both
    at their first memo generation; the route map must follow the grid."""
    open_map = OccupancyGrid.filled(320, 96, 0.15625)
    state = MissionState(vehicle_pose=Pose2D(5, 7, 0), goal=Pose2D(45, 7, 0))
    tick(state, open_map)
    assert state.prev_astar.length == pytest.approx(40.0, abs=1.0)
    walled = OccupancyGrid.filled(320, 96, 0.15625)
    walled.set_box(24.0, 0.0, 26.0, 12.0, OCCUPIED)   # detour around the wall's top
    with counted_writes() as writes:
        walled = walled.copy()
        tick(state, walled)
    assert not writes
    assert state.prev_astar.length > 45.0


def test_route_map_rebuilt_after_set_box():
    g = OccupancyGrid.filled(320, 96, 0.15625)
    state = MissionState(vehicle_pose=Pose2D(5, 7, 0), goal=Pose2D(45, 7, 0))
    tick(state, g)
    assert state.prev_astar.length == pytest.approx(40.0, abs=1.0)
    g.set_box(24.0, 0.0, 26.0, 12.0, OCCUPIED)   # same grid, now walled
    tick(state, g)
    assert state.prev_astar.length > 45.0


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
    assert result.s_coll is not None and result.s_coll <= 20.0
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
    first = tick(state, belief, mode="guided")
    assert first.replanned and first.cause == "initial"
    causes = []
    for step in range(1, 120):
        progress = step * 0.5
        state.vehicle_pose = state.current_path.pose_at(state.progress_s + 0.5)
        state.progress_s += 0.5
        state.odometer += 0.5
        raytrace_reveal(truth, belief, state.vehicle_pose, 28.0, 1440)
        result = tick(state, belief, mode="guided")
        if result.status == "failed":
            pytest.fail(f"mission failed: {result.reason}")
        if result.replanned:
            causes.append(result.cause)
            state.progress_s = 0.0
            if result.cause == "divergence":
                assert result.s_div is not None
                break
    assert "divergence" in causes


def test_refresh_cadence_in_early_stop_mode():
    g = bordered_grid(200, 14)
    state = MissionState(vehicle_pose=Pose2D(5, 7, 0), goal=Pose2D(193, 7, 0))
    assert tick(state, g, mode="guided").replanned
    replans = 0
    driven = 0.0
    while driven < 30.0:
        state.vehicle_pose = state.current_path.pose_at(state.progress_s + 0.5)
        state.progress_s += 0.5
        state.odometer += 0.5
        driven += 0.5
        result = tick(state, g, mode="guided")
        if result.replanned:
            assert result.cause == "refresh"
            state.progress_s = 0.0
            replans += 1
    assert replans == 3  # every s_t = 10 m


def drive_rotate_drive(first=5.0, delta=math.pi / 2, second=4.0, x=5.0, y=10.0):
    """`first` m east from (x, y), a rotation by `delta` on the spot, then
    `second` m on; by default 5 m east to (10, 10), a quarter turn, 4 m north."""
    builder = PathBuilder(Pose2D(x, y, 0))
    for i in range(1, 11):
        builder.add_drive_sample(x + first * i / 10, y, 0.0, 0.0, 1)
    builder.add_rotation(delta)
    yaw = Pose2D(0, 0, delta).yaw
    for i in range(1, 11):
        t = second * i / 10
        builder.add_drive_sample(x + first + t * math.cos(yaw), y + t * math.sin(yaw),
                                 yaw, 0.0, 1)
    return builder.finish()


@pytest.mark.parametrize("rotations_done", [0, 1], ids=["pending", "done"])
def test_replan_at_a_rotation_keeps_it_only_while_pending(rotations_done):
    """A replan while the vehicle stands at a rotation of a drive-rotate-drive
    path: the stitched path starts at the vehicle's pose, with the rotation
    first while it is pending, and without it once it is done."""
    path = drive_rotate_drive()
    state = make_state(path, progress=5.0)
    state.goal = Pose2D(30, 12, 0)
    state.rotations_done = rotations_done
    state.vehicle_pose = Pose2D(10, 10, rotations_done * math.pi / 2)
    result = tick(state, bordered_grid(40, 24), mode="guided")
    assert result.cause == "refresh" and result.s_plan == 2.0
    stitched = state.current_path
    assert stitched.n_rotations == 1 - rotations_done   # standard mode plans no rotation
    assert isinstance(stitched.segments[0], RotationSegment) == (rotations_done == 0)
    assert pose_close(stitched.start_pose(), Pose2D(10, 10, rotations_done * math.pi / 2),
                      pos_tol=1e-9, yaw_tol=1e-9)
    assert pose_close(stitched.pose_at(2.0), path.pose_at(7.0), pos_tol=1e-9, yaw_tol=1e-9)


def test_executed_rotation_is_not_checked_again():
    """A box that only the rotation's sweep at (10, 10) hits blocks the path
    while the rotation is pending; once it is done the rest is clear and the
    tick keeps driving instead of replanning from the pre-rotation yaw."""
    path = drive_rotate_drive()
    g = bordered_grid(40, 24)
    g.set_box(12.8, 8.6, 13.1, 8.9, OCCUPIED)
    disks = VEH.disks
    assert check_path_collision(path, 0.0, g, disks) == pytest.approx(5.0)
    assert check_path_collision(path, 5.0, g, disks) == 0.0
    assert check_path_collision(path, 5.0, g, disks, rotations_done=1) is None
    state = make_state(path, progress=5.0)
    state.goal = Pose2D(30, 12, 0)
    state.rotations_done = 1
    state.vehicle_pose = Pose2D(10, 10, math.pi / 2)
    assert tick(state, g).status == "keep_driving"
    assert state.current_path is path


def test_refresh_after_an_executed_trailing_rotation_starts_at_the_vehicle(monkeypatch):
    """The vehicle has driven a path to its end and done the closing quarter
    turn: the refresh replan has s_plan 0, so it keeps nothing of the path and
    plans from the vehicle's yaw in gear (0, 0.0), not from the path's
    pre-rotation pose in forward gear."""
    calls = []

    def recording_plan(belief, start, goal, *args, **kwargs):
        calls.append((start, kwargs["start_direction"], kwargs["start_steer"]))
        return plan(belief, start, goal, *args, **kwargs)

    monkeypatch.setattr(mission, "plan", recording_plan)
    builder = PathBuilder(Pose2D(5, 10, 0))
    for i in range(1, 11):
        builder.add_drive_sample(5 + i * 0.5, 10, 0.0, 0.0, 1)
    builder.add_rotation(math.pi / 2)
    vehicle = Pose2D(10, 10, math.pi / 2)
    state = make_state(builder.finish(), progress=5.0)
    state.rotations_done = 1
    state.vehicle_pose = vehicle
    state.goal = Pose2D(10, 18, math.pi / 2)
    result = tick(state, bordered_grid(40, 24), mode="guided")
    assert result.cause == "refresh" and result.s_plan == 0.0
    assert calls == [(vehicle, 0, 0.0)]
    assert state.current_path.start_pose() == vehicle
    assert state.current_path.n_rotations == 0


def test_replanning_tick_plans_on_the_route_map_it_built(monkeypatch):
    """The tick and the planner both pass the planner config, so the planner
    reads the very map the tick built to pick its stop rule."""
    built = []

    def recording_build(belief, goal, config):
        built.append(heuristic.build_distance_map(belief, goal, config))
        return built[-1]

    monkeypatch.setattr(mission, "build_distance_map", recording_build)
    monkeypatch.setattr(planner, "build_distance_map", recording_build)
    state = MissionState(vehicle_pose=Pose2D(5, 7, 0), goal=Pose2D(35, 7, 0))
    assert tick(state, bordered_grid(40, 14)).replanned
    assert len(built) == 2 and built[1] is built[0]


def test_failure_propagates_reason():
    g = bordered_grid(40, 14)
    g.set_box(18.0, 0.5, 20.0, 13.5, OCCUPIED)   # no way east
    state = MissionState(vehicle_pose=Pose2D(5, 7, 0), goal=Pose2D(35, 7, 0))
    result = tick(state, g)
    assert result.status == "failed"
    assert result.reason == "route lost: no 2D route"


@pytest.mark.parametrize("boxes,start,goal,mode,vehicle,reason", [
    ([(30, 5, 31, 9)], Pose2D(5, 7, 0), Pose2D(31.5, 7, 0), "standard", VEH,
     "route lost: goal blocked"),
    ([(6, 6.5, 6.4, 7.5)], Pose2D(4, 7, 0), Pose2D(35, 7, 0), "standard", VEH,
     "planner failure: start in collision"),       # a post under the vehicle's body
    # a 3.4 m corridor: the 2D route passes it, the wide vehicle's disks do not
    ([(0, 0, 100, 5.3), (0, 8.7, 100, 14)], Pose2D(3, 7, 0), Pose2D(95, 7, 0), "waypoint",
     WIDE, "planner failure: no free waypose on the route"),
])
def test_failed_tick_names_the_stop_cause(boxes, start, goal, mode, vehicle, reason):
    """A failed tick's reason is the run's stop cause, its kind first: the
    route lost before a replan, a planner failure inside one.  The route
    lost with no 2D route is `test_failure_propagates_reason`."""
    g = bordered_grid(100, 14)
    for box in boxes:
        g.set_box(*box, OCCUPIED)
    state = MissionState(vehicle_pose=start, goal=goal)
    result = mission_tick(state, g, MissionConfig(), CFG, MODES[mode], vehicle)
    assert result.status == "failed" and result.reason == reason


@pytest.mark.parametrize("mode,message", [
    ((planner.STANDARD, "early-stop"), "unknown navigation mode 'early-stop'"),
    (("Extended", mission.NAV_EARLY_STOP), "unknown planner mode 'Extended'"),
])
def test_mission_tick_rejects_an_unknown_mode(mode, message):
    """A navigation or planner mode with no behaviour of its own is an error
    that names it."""
    state = MissionState(vehicle_pose=Pose2D(5, 7, 0), goal=Pose2D(35, 7, 0))
    with pytest.raises(ValueError, match=f"^{message}$"):
        mission_tick(state, bordered_grid(40, 14), MissionConfig(), CFG, mode, VEH)


def test_waypoint_mode_plans_to_the_waypose_until_within_s_lim(monkeypatch):
    """Beyond s_lim of route distance the plan goes to the route's waypose at
    s_w, not to the goal; within s_lim it goes to the goal itself."""
    calls = []

    def recording_plan(belief, start, goal, *args, **kwargs):
        calls.append((goal, kwargs["horizon"]))
        return plan(belief, start, goal, *args, **kwargs)

    monkeypatch.setattr(mission, "plan", recording_plan)
    g = bordered_grid(200, 14)
    goal = Pose2D(193, 7, 0)
    cfg = MissionConfig()
    far = MissionState(vehicle_pose=Pose2D(5, 7, 0), goal=goal)
    assert tick(far, g, mode="waypoint").replanned
    assert far.prev_astar.length >= cfg.s_lim
    planned_goal, horizon = calls[-1]
    assert planned_goal == waypose_at(far.prev_astar, cfg.s_w)
    assert planned_goal.distance_to(goal) > 100.0
    assert horizon is None
    assert pose_close(far.current_path.end_pose(), planned_goal, pos_tol=CFG.xy_resolution,
                      yaw_tol=CFG.yaw_resolution)
    assert not far.path_to_goal

    near = MissionState(vehicle_pose=Pose2D(140, 7, 0), goal=goal)
    assert tick(near, g, mode="waypoint").replanned
    assert near.prev_astar.length < cfg.s_lim
    assert calls[-1] == (goal, None)
    assert near.path_to_goal


def test_a_blocked_waypose_moves_back_along_the_route(monkeypatch):
    """A wall across the corridor leaves a 2.8 m gap.  The route passes it
    off-centre, on cell centres, where the footprint does not fit, and the
    waypose at s_w lies in the gap.  The plan goes to the first route vertex
    behind it whose pose is free, every vertex between the two being blocked."""
    goals = []

    def recording_plan(belief, start, goal, *args, **kwargs):
        goals.append(goal)
        return plan(belief, start, goal, *args, **kwargs)

    monkeypatch.setattr(mission, "plan", recording_plan)
    g = bordered_grid(200, 14)
    g.set_box(59.0, 0.0, 61.0, 5.6, OCCUPIED)
    g.set_box(59.0, 8.4, 61.0, 14.0, OCCUPIED)
    state = MissionState(vehicle_pose=Pose2D(5, 7, 0), goal=Pose2D(193, 7, 0))
    tick(state, g, mode="waypoint")
    route, s_w = state.prev_astar, MissionConfig().s_w
    checker = CollisionChecker(g, VEH.disks)

    def blocked(pose):
        return checker.pose_blocked(pose.x, pose.y, pose.yaw)
    assert blocked(waypose_at(route, s_w))
    vertices = [s for s in route.cumulative_s.tolist() if 0.0 < s < s_w]
    poses = [waypose_at(route, s) for s in vertices]
    free = max(i for i, pose in enumerate(poses) if not blocked(pose))
    assert all(blocked(pose) for pose in poses[free + 1:])
    assert goals == [poses[free]] and poses[free].x < 59.0


def test_no_free_waypose_on_the_route_is_none():
    """Past the route's start, the vehicle's own cell, every vertex pose is
    blocked: there is no free waypose.  With the wall's west face moved to
    x = 40 m, the waypose is the last free vertex before it."""
    g = bordered_grid(100, 14)
    g.set_box(7.0, 0.0, 100.0, 14.0, OCCUPIED)
    points = np.column_stack([5.0 + np.arange(100) * 0.625, np.full(100, 7.0)])
    route = AStarPath(points=points, cumulative_s=np.arange(100) * 0.625)
    assert free_waypose(route, 55.0, CollisionChecker(g, VEH.disks)) is None
    g.set_box(7.0, 0.5, 40.0, 13.5, FREE)
    checker = CollisionChecker(g, VEH.disks)
    pose = free_waypose(route, 55.0, checker)
    assert not checker.pose_blocked(pose.x, pose.y, pose.yaw)
    assert checker.pose_blocked(pose.x + 0.625, pose.y, pose.yaw) and 30.0 < pose.x < 40.0


@pytest.mark.parametrize("scenario,mode,replans", [
    ("reveal_divergence", "guided", ["initial", "divergence", "collision"]),
    ("plate_corridor_84", "extended", ["initial"]),
])
def test_closed_loop_replans_start_on_the_current_path(monkeypatch, scenario, mode, replans):
    """At every replan of a closed-loop run the plan starts exactly at the
    current path's pose at the replan point (the vehicle's own pose when
    s_plan is 0), the planned path starts there too, and the stitched path
    reaches it at s_plan: the kept prefix ends where the plan begins."""
    planned_starts = []

    def recording_plan(belief, start, *args, **kwargs):
        planned, stats = plan(belief, start, *args, **kwargs)
        planned_starts.append((start, planned.start_pose()))
        return planned, stats

    causes = []

    def checking_tick(state, *args):
        path, progress, vehicle_pose = state.current_path, state.progress_s, state.vehicle_pose
        result = mission_tick(state, *args)
        if result.replanned:
            fresh = result.s_plan == 0.0
            expect = vehicle_pose if fresh else path.pose_at(progress + result.s_plan)
            assert planned_starts[-1] == (expect, expect)
            assert state.current_path.pose_at(result.s_plan) == expect
            causes.append(result.cause)
        return result

    monkeypatch.setattr(mission, "plan", recording_plan)
    monkeypatch.setattr(simulate, "mission_tick", checking_tick)
    report = simulate.run_scenario(bundled(scenario), MissionConfig(), CFG,
                                   MODES[mode], VEH).report
    assert report.reached
    assert causes == replans and len(planned_starts) == len(replans)


def closed_loop_routes(monkeypatch, scenario):
    """Run `scenario`/guided, checking that every route the mission extracts,
    cut from the previous tick's route or walked, equals the scalar neighbour
    loop's from scratch on the same map and pose, byte for byte.  Returns the
    extracting calls' start poses, the distinct maps and, for each route
    taken from the previous one, whether it was that route itself (else a
    slice of its arrays)."""
    calls, maps, reused = [], [], []

    def checking_extract(dmap, start, previous=None):
        path = extract_astar_path(dmap, start, previous)
        ref = extract_astar_path_reference(dmap, start)
        assert path.points.tobytes() == ref.points.tobytes()
        assert path.cumulative_s.tobytes() == ref.cumulative_s.tobytes()
        calls.append(start)
        if not maps or maps[-1] is not dmap:
            maps.append(dmap)
        if previous is not None and np.shares_memory(path.points, previous.points):
            assert previous.source is dmap
            reused.append(path is previous)
        return path

    monkeypatch.setattr(mission, "extract_astar_path", checking_extract)
    report = simulate.run_scenario(bundled(scenario), MissionConfig(), CFG,
                                   MODES["guided"], VEH).report
    assert report.reached
    return calls, maps, reused


def test_closed_loop_routes_match_the_scalar_descent(monkeypatch):
    """On an unknown map whose route map changes on many ticks no successor
    table outlives its values and no route outlives its map; the ticks that
    keep the map still take their route from the previous one."""
    calls, maps, reused = closed_loop_routes(monkeypatch, "reveal_divergence")
    assert len(calls) > 100 and len(maps) > 50   # 126 ticks on 71 route maps
    assert True in reused and False in reused    # 9 whole routes, 15 suffixes


def test_closed_loop_routes_on_a_known_map_are_cut_from_the_previous(monkeypatch):
    """On smoke_small's known map one route map serves the whole run, so
    only the first route is walked and every later one is the previous
    route or its suffix (the vehicle's cell stays on the route)."""
    calls, maps, reused = closed_loop_routes(monkeypatch, "smoke_small")
    assert len(maps) == 1 and len(reused) == len(calls) - 1 > 30   # 41 ticks
    assert True in reused and False in reused    # 8 whole routes, 32 suffixes


# ------------------------------------------------- carried collision verdict

_carry_step = st.one_of(
    st.tuples(st.just("advance"), st.floats(0.0, 3.0)),
    st.tuples(st.just("back"), st.floats(0.0, 3.0), st.booleans()),
    st.tuples(st.just("rotate")),
    st.tuples(st.just("noop_write")),
    st.tuples(st.just("far_write"), st.floats(30.0, 37.0), st.floats(2.0, 20.0)),
    st.tuples(st.just("write_ahead"), st.floats(0.0, 8.0), st.floats(-2.5, 2.5),
              st.sampled_from([OCCUPIED, FREE])),
    st.tuples(st.just("swap_path")),
    st.tuples(st.just("replan"), st.floats(2.0, 8.0), st.floats(1.0, 12.0)),
    st.tuples(st.just("vehicle"), st.sampled_from([VEH, WIDE])))


@settings(max_examples=150, deadline=None)
@given(st.floats(2.0, 8.0), st.sampled_from([math.pi / 2, -math.pi / 2, math.pi, 0.4]),
       st.floats(1.0, 7.0), st.lists(_carry_step, max_size=14))
def test_carried_verdict_equals_a_fresh_check(first, delta, second, steps):
    """Whatever the vehicle, the belief and the path do, the carried verdict
    is the one a fresh check of the current path from the vehicle's place
    gives: progress, executed rotations, no-op, far and blocking writes, an
    equal-valued but distinct path, a new path and a different vehicle.  The
    steps back (an undone rotation too) test the rule that a verdict holds
    only ahead of its check."""
    belief = bordered_grid(40, 24)
    path = drive_rotate_drive(first, delta, second, 12.0, 12.0)
    state = make_state(path)
    vehicle = VEH
    for step in [("advance", 0.0)] + steps:
        kind = step[0]
        if kind == "advance":
            state.progress_s = min(state.progress_s + step[1], path.total_drive_length)
        elif kind == "back":
            state.progress_s = max(state.progress_s - step[1], 0.0)
            state.rotations_done = max(state.rotations_done - step[2], 0)
        elif kind == "rotate" and state.progress_s >= first - 1e-9:
            state.rotations_done = min(state.rotations_done + 1, path.n_rotations)
        elif kind == "noop_write":
            belief.set_cells((0, 0), belief.cells[0, 0])
        elif kind == "far_write":
            belief.set_box(step[1], step[2], step[1] + 0.5, step[2] + 0.5, OCCUPIED)
        elif kind == "write_ahead":
            pose = path.pose_at(state.progress_s + step[1])
            x = pose.x - math.sin(pose.yaw) * step[2]
            y = pose.y + math.cos(pose.yaw) * step[2]
            belief.set_box(x - 0.2, y - 0.2, x + 0.2, y + 0.2, step[3])
        elif kind == "swap_path":
            state.current_path = drive_rotate_drive(first, delta, second, 12.0, 12.0)
            assert state.current_path is not path
        elif kind == "replan":     # a new path from the start, up to 12 m on
            first, second = step[1], step[2]
            path = state.current_path = drive_rotate_drive(first, delta, second, 12.0, 12.0)
            state.progress_s, state.rotations_done = 0.0, 0
        elif kind == "vehicle":
            vehicle = step[1]
        disks = vehicle.disks
        fresh = check_path_collision(state.current_path, state.progress_s, belief, disks,
                                     state.rotations_done)
        assert carried_path_collision(state, belief, disks) == fresh


def test_clear_path_is_checked_once_until_something_changes(monkeypatch):
    """The work count: one check while the obstacle field stays the same
    object, one more for each write that adds an obstacle, step back or other
    vehicle, and a hit is checked on every tick.  A write that adds no
    obstacle keeps the field, so the verdict is carried, and it still equals
    a fresh check."""
    checks = []

    def counting_check(*args):
        checks.append(args)
        return check_path_collision(*args)

    monkeypatch.setattr(mission, "check_path_collision", counting_check)
    g, path = straight_path(30.0)
    state, disks = make_state(path), VEH.disks
    for progress in (0.0, 0.0, 1.0, 5.0):
        state.progress_s = progress
        assert carried_path_collision(state, g, disks) is None
    assert len(checks) == 1
    for write in (lambda: g.set_cells((0, 0), g.cells[0, 0]),    # same values
                  lambda: g.set_box(2.0, 2.0, 3.0, 3.0, FREE)):
        write()
        assert carried_path_collision(state, g, disks) is None
        assert check_path_collision(path, state.progress_s, g, disks) is None
    assert len(checks) == 1
    g.set_box(0.6, 0.6, 0.8, 0.8, OCCUPIED)             # a new obstacle, even a far one
    assert carried_path_collision(state, g, disks) is None
    state.progress_s = 4.0                              # behind that check
    assert carried_path_collision(state, g, disks) is None
    assert carried_path_collision(state, g, WIDE.disks) is None
    assert len(checks) == 4
    g.set_box(20.0, 0.5, 21.0, 11.5, OCCUPIED)          # a wall ahead is seen
    hit = carried_path_collision(state, g, disks)
    assert hit is not None and hit == carried_path_collision(state, g, disks)
    assert len(checks) == 6                             # a hit is not carried


def straight_line(y):
    """A forward drive along the line y from x = 5 to x = 35."""
    builder = PathBuilder(Pose2D(5, y, 0))
    for i in range(1, 61):
        builder.add_drive_sample(5 + i * 0.5, y, 0.0, 0.0, 1)
    return builder.finish()


def test_each_part_of_the_carried_key_can_turn_clear_into_a_hit():
    """A clear verdict is carried only for the same path, obstacle field and
    disks, and only ahead of its check: changing any one of them alone
    exposes a hit that carrying the verdict would hide."""
    g = bordered_grid(40, 12)
    g.set_box(15.0, 7.5, 15.3, 7.8, OCCUPIED)   # 1.5 m beside y = 6: only a wide vehicle hits it
    g.set_box(25.0, 9.5, 25.3, 9.8, OCCUPIED)   # on the line y = 9.6
    narrow, wide = VEH.disks, WIDE.disks
    state = make_state(straight_line(6.0), progress=14.0)
    assert carried_path_collision(state, g, wide) is None       # past the box
    state.progress_s = 10.0
    assert carried_path_collision(state, g, wide) is not None   # behind the clear check
    state.progress_s = 0.0
    assert carried_path_collision(state, g, narrow) is None
    assert carried_path_collision(state, g, wide) is not None   # other disks
    line = state.current_path
    state.current_path = straight_line(9.6)
    assert carried_path_collision(state, g, narrow) is not None  # other path
    state.current_path = line
    assert carried_path_collision(state, g, narrow) is None
    g.set_box(30.0, 0.5, 30.5, 11.5, OCCUPIED)
    assert carried_path_collision(state, g, narrow) is not None  # other obstacle field

    g = bordered_grid(40, 24)
    g.set_box(12.8, 8.6, 13.1, 8.9, OCCUPIED)   # only the rotation's sweep hits it
    state = make_state(drive_rotate_drive(), progress=5.0)
    state.rotations_done = 1
    assert carried_path_collision(state, g, narrow) is None
    state.rotations_done = 0
    assert carried_path_collision(state, g, narrow) == 0.0      # the rotation is pending again


@pytest.mark.parametrize("scenario,mode", [
    ("smoke_small", "guided+extended"),
    ("reveal_divergence", "guided"),
])
def test_closed_loop_carried_verdicts_match_fresh_checks(monkeypatch, scenario, mode):
    """In a closed-loop run every tick's collision verdict, carried or not and
    read on the saturated field, equals a fresh check on the exact field; on
    the known map each (path, obstacle field) is checked in full at most once."""
    checked, carried = [], []

    def counting_check(path, from_s, belief, disks, rotations_done):
        checked.append((path, belief.distance_field().values))
        return check_path_collision(path, from_s, belief, disks, rotations_done)

    def checking_carry(state, belief, disks):
        before = len(checked)
        verdict = carried_path_collision(state, belief, disks)
        exact = OccupancyGrid(belief.resolution, belief.cells)
        assert verdict == check_path_collision(state.current_path, state.progress_s, exact,
                                               disks, state.rotations_done)
        carried.append(len(checked) == before)
        return verdict

    monkeypatch.setattr(mission, "check_path_collision", counting_check)
    monkeypatch.setattr(mission, "carried_path_collision", checking_carry)
    spec = bundled(scenario)
    run = simulate.run_scenario(spec, MissionConfig(), CFG, MODES[mode], VEH)
    assert run.report.reached and any(carried)
    keys = {(id(path), id(field)) for path, field in checked}
    if spec.known_env:
        assert len(keys) == len(checked) == len(run.events)   # one full check per path


def test_closed_loop_reads_one_obstacle_field_per_belief_version(monkeypatch):
    """On reveal_divergence/guided the route, the collision trigger and the
    planner share one obstacle field per belief version (its count of
    writes): each version read is one `distance_transform` call on the run's
    belief, whose cap is the run's `field_cap`."""
    calls = []
    transform = grid_module.distance_transform

    def counting(grid, **kwargs):
        calls.append((grid, writes[grid]))
        return transform(grid, **kwargs)

    monkeypatch.setattr(grid_module, "distance_transform", counting)
    spec = bundled("reveal_divergence")
    with counted_writes() as writes:
        report = simulate.run_scenario(spec, MissionConfig(), CFG, MODES["guided"], VEH).report
    assert report.reached and len(calls) > 1
    assert len(set(calls)) == len(calls)
    (belief,) = {grid for grid, _ in calls}
    assert belief is not spec.truth_map
    assert belief.cap == field_cap(VEH, CFG, spec.truth_map.resolution)


def test_closed_loop_field_updates_read_the_write_log(monkeypatch):
    """On reveal_divergence/guided every obstacle-field rebuild after the
    first is handed the previous field and exactly the cells that the last
    write made occupied (a reveal frees none), and reads neither the cells
    nor the occupied mask: no whole-grid delta scan.  The field is still one
    `distance_transform` call per belief version (its count of writes)."""
    calls, scans, inside = [], [], []
    transform = grid_module.distance_transform
    cells, occupied_mask = OccupancyGrid.cells, OccupancyGrid.occupied_mask

    def logged(grid, **kwargs):
        previous = kwargs["previous"]     # 0.0 on the cells occupied one write back
        made = None if previous is None else np.flatnonzero(
            (grid.cells == OCCUPIED) & (previous != 0.0))
        calls.append((grid, writes[grid], previous, kwargs["added"], made))
        inside.append(len(calls))
        try:
            return transform(grid, **kwargs)
        finally:
            inside.pop()

    def scanned(read):
        def reader(grid, *args):
            if inside:
                scans.append(inside[-1])
            return read(grid, *args)
        return reader

    monkeypatch.setattr(grid_module, "distance_transform", logged)
    monkeypatch.setattr(OccupancyGrid, "cells", property(scanned(cells.fget)))
    monkeypatch.setattr(OccupancyGrid, "occupied_mask", scanned(occupied_mask))
    with counted_writes() as writes:
        report = simulate.run_scenario(bundled("reveal_divergence"), MissionConfig(), CFG,
                                       MODES["guided"], VEH).report
    assert report.reached and len(calls) > 1
    assert len({(grid, version) for grid, version, *_ in calls}) == len(calls)
    assert calls[0][2] is None and set(scans) == {1}       # the first build, from empty
    for _, _, previous, added, made in calls[1:]:
        assert previous is not None and np.array_equal(np.sort(added), made)
    assert any(added.size for _, _, _, added, _ in calls[1:])


def test_closed_loop_route_maps_are_repaired_and_exact(monkeypatch, floods):
    """On reveal_divergence/guided every route map built equals the one
    built from scratch (values, blocked grid and successor table), and
    every flood after the first is a repair of the previous map."""
    last = {}

    def checked_build(belief, goal, config):
        dm = heuristic.build_distance_map(belief, goal, config)
        key = (dm.goal_cell, config.xy_resolution, config.inflation_radius)
        if last.get(key) is not dm:                   # built, not reused
            expect = build_distance_map_reference(belief, goal, config)
            assert np.array_equal(dm.values, expect.values)
            assert np.array_equal(dm.blocked, expect.blocked)
            assert np.array_equal(np.asarray(dm.successor), np.asarray(expect.successor))
            last[key] = dm
        return dm

    monkeypatch.setattr(mission, "build_distance_map", checked_build)
    monkeypatch.setattr(planner, "build_distance_map", checked_build)
    report = simulate.run_scenario(bundled("reveal_divergence"), MissionConfig(), CFG,
                                   MODES["guided"], VEH).report
    assert report.reached
    assert floods == ["full"] + ["repair"] * 70
