from __future__ import annotations

import math

import numpy as np
import pytest

from hybridplan.geometry import Pose2D
from hybridplan.grid import FREE, OCCUPIED, OccupancyGrid
from hybridplan.heuristic import build_distance_map
from hybridplan.planner import (BudgetExceededError, DriveMotion, DriveSegment,
                                EXTENDED, NoPathError, PathBuilder,
                                PlannerConfig, RotationMotion, RotationSegment,
                                STANDARD, STOP_EARLY, _CollisionChecker,
                                analytic_expansions, cost_of, geometric_extension,
                                plan)
from hybridplan.reeds_shepp import rs_path_length
from hybridplan.vehicle import make_disk_set, pose_collides, rotation_collides, ushift_spec

from conftest import angles_close, bordered_grid, clutter_scene, pose_close
from oracles import analytic_expansions_reference

VEH = ushift_spec()
CFG = PlannerConfig()


def open_grid(width_m=40.0, height_m=40.0):
    return bordered_grid(width_m, height_m)


# ------------------------------------------------------------------ cost_of

def test_cost_plain_forward_meter():
    assert cost_of(DriveMotion(0.0, 1, 1.0), CFG, parent_direction=1) == pytest.approx(1.0)


def test_cost_rotation_quarter_turn():
    expected = CFG.w_rotation_fixed + CFG.w_rotation_rate * math.pi / 2
    assert cost_of(RotationMotion(math.pi / 2), CFG) == pytest.approx(expected)
    assert expected == pytest.approx(5.0 + 2.0 * math.pi / 2)


def test_cost_zero_length_keeps_switch_penalty():
    c = cost_of(DriveMotion(0.0, -1, 0.0), CFG, parent_direction=1)
    assert c == pytest.approx(CFG.w_switch)


def test_cost_reverse_and_steer_terms():
    c = cost_of(DriveMotion(0.3, -1, 2.0), CFG, parent_direction=-1, parent_steer=0.1)
    expected = 2.0 * (1.0 + CFG.w_reverse) + CFG.w_steer * 0.3 + CFG.w_steer_change * 0.2
    assert c == pytest.approx(expected)


# ------------------------------------------------------- geometric extension

def test_extension_perpendicular_case():
    out = geometric_extension(Pose2D(0, 0, 0), Pose2D(4, 3, math.pi / 2), 20.0)
    assert out is not None
    point, pre, delta, post = out
    assert point == pytest.approx((4.0, 0.0))
    assert pre == pytest.approx(4.0)
    assert delta == pytest.approx(math.pi / 2)
    assert post == pytest.approx(3.0)


def test_extension_mirror_case():
    out = geometric_extension(Pose2D(0, 0, 0), Pose2D(2, -2, -math.pi / 2), 10.0)
    assert out is not None
    point, pre, delta, post = out
    assert point == pytest.approx((2.0, 0.0))
    assert pre == pytest.approx(2.0)
    assert delta == pytest.approx(-math.pi / 2)
    assert post == pytest.approx(2.0)


def test_extension_parallel_headings_none():
    assert geometric_extension(Pose2D(0, 0, 0), Pose2D(5, 3, 0), 20.0) is None
    assert geometric_extension(Pose2D(0, 0, 0), Pose2D(5, 3, math.pi), 20.0) is None


def test_extension_outside_half_length_none():
    assert geometric_extension(Pose2D(0, 0, 0), Pose2D(40, 3, math.pi / 2), 20.0) is None


def test_extension_intersection_oracle(rng):
    """Cross-check against a brute-force line intersection."""
    for _ in range(50):
        cur = Pose2D(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi))
        goal = Pose2D(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi))
        out = geometric_extension(cur, goal, 60.0)
        if out is None:
            continue
        point, pre, delta, post = out
        assert point[0] == pytest.approx(cur.x + pre * math.cos(cur.yaw), abs=1e-9)
        assert point[1] == pytest.approx(cur.y + pre * math.sin(cur.yaw), abs=1e-9)
        assert goal.x == pytest.approx(point[0] + post * math.cos(goal.yaw), abs=1e-6)
        assert goal.y == pytest.approx(point[1] + post * math.sin(goal.yaw), abs=1e-6)
        assert angles_close(cur.yaw + delta, goal.yaw, 1e-9)


# ----------------------------------------------------------------- planning

def test_immediate_goal_single_node():
    g = open_grid()
    start = Pose2D(20.0, 20.0, 0.0)
    path, stats = plan(g, start, Pose2D(20.1, 20.1, 0.02), VEH, CFG)
    assert stats.nodes_expanded == 1
    assert len(path.segments) == 0


def test_free_space_matches_analytic_optimum():
    g = open_grid()
    start, goal = Pose2D(10, 20, 0), Pose2D(20, 20, 0)
    path, stats = plan(g, start, goal, VEH, CFG)
    assert path.total_drive_length == pytest.approx(10.0, abs=CFG.xy_resolution)
    assert pose_close(path.end_pose(), goal)


def test_free_space_optimality_margin(rng):
    g = open_grid()
    for _ in range(20):
        start = Pose2D(rng.uniform(12, 28), rng.uniform(12, 28), rng.uniform(-math.pi, math.pi))
        goal = Pose2D(rng.uniform(12, 28), rng.uniform(12, 28), rng.uniform(-math.pi, math.pi))
        path, _ = plan(g, start, goal, VEH, CFG)
        rs = rs_path_length(start, goal, VEH.min_turn_radius)
        assert path.total_drive_length <= rs + 2 * CFG.xy_resolution + 1e-9


def test_no_path_when_goal_boxed():
    g = open_grid()
    g.set_box(13.0, 13.0, 15.0, 27.0, OCCUPIED)
    g.set_box(27.0, 13.0, 29.0, 27.0, OCCUPIED)
    g.set_box(13.0, 25.0, 29.0, 27.0, OCCUPIED)
    g.set_box(13.0, 13.0, 29.0, 15.0, OCCUPIED)
    with pytest.raises(NoPathError):
        plan(g, Pose2D(5, 5, 0), Pose2D(21, 20, 0), VEH, CFG)


def test_budget_exhaustion_raises():
    g = open_grid()
    cfg = PlannerConfig(node_budget=5, analytic_radius=0.001)
    with pytest.raises(BudgetExceededError):
        plan(g, Pose2D(5, 5, 0), Pose2D(35, 35, 2.0), VEH, cfg)


def test_planned_path_is_collision_free(rng):
    g = open_grid()
    for _ in range(6):
        g.set_box(rng.uniform(8, 30), rng.uniform(8, 30),
                  rng.uniform(8, 30) + 2.0, rng.uniform(8, 30) + 2.0, OCCUPIED)
    disks = make_disk_set(VEH)
    df = g.distance_field()
    start, goal = Pose2D(4, 4, 0), Pose2D(36, 36, math.pi / 2)
    try:
        path, _ = plan(g, start, goal, VEH, CFG)
    except NoPathError:
        pytest.skip("layout closed the route")
    for seg in path.segments:
        if isinstance(seg, DriveSegment):
            for x, y, yaw in zip(seg.xs, seg.ys, seg.yaws):
                assert not pose_collides(Pose2D(float(x), float(y), float(yaw)),
                                         disks, df, g.resolution)
        else:
            assert not rotation_collides(Pose2D(seg.x, seg.y, seg.from_yaw), seg.delta,
                                         disks, df, g.resolution)


def test_early_stop_first_trigger_semantics():
    g = bordered_grid(130, 12)
    goal = Pose2D(125, 6, 0.0)
    dm = build_distance_map(g, goal)
    start = Pose2D(5, 6, 0.0)
    path, _ = plan(g, start, goal, VEH, CFG, stop_rule=STOP_EARLY, s_w=55.0,
                   distance_map=dm)
    hd_start = dm.route_distance(start.x, start.y)
    end = path.end_pose()
    assert hd_start - dm.value_at(end.x, end.y) > 55.0
    # one drive sample earlier the drop must not yet have fired
    before = path.pose_at(max(path.total_drive_length - CFG.arc_length, 0.0))
    assert hd_start - dm.value_at(before.x, before.y) <= 55.0 + 1e-9


def test_early_stop_does_not_snap_to_goal():
    g = bordered_grid(130, 12)
    goal = Pose2D(125, 6, 0.0)
    path, _ = plan(g, Pose2D(5, 6, 0), goal, VEH, CFG, stop_rule=STOP_EARLY, s_w=55.0)
    assert path.end_pose().distance_to(goal) > 10.0


def test_monotone_f_in_free_space():
    """Popped f values are non-decreasing up to the grid-metric allowance.

    The 2D cost-to-go measures octile distance, so a 1.25 m primitive driven
    diagonally can shed up to sqrt(2) * 1.25 m of heuristic: f may dip by at
    most (sqrt(2) - 1) * arc_length per pop.
    """
    import heapq
    from hybridplan import planner as pl

    g = open_grid(30, 30)
    goal = Pose2D(22, 22, 1.0)
    popped = []

    original = heapq.heappop

    def spying_pop(heap):
        item = original(heap)
        popped.append(item[0])
        return item

    pl.heapq.heappop = spying_pop
    try:
        plan(g, Pose2D(8, 8, 0), goal, VEH,
             PlannerConfig(rs_heuristic_radius=100.0, analytic_radius=0.001))
    except (NoPathError, BudgetExceededError):
        pass
    finally:
        pl.heapq.heappop = original
    fs = np.array(popped)
    assert fs.size > 10
    allowance = (math.sqrt(2.0) - 1.0) * CFG.arc_length + 1e-9
    assert np.all(np.diff(fs) >= -allowance)
    assert fs[-1] >= fs[0] - 1e-6


def test_rotation_priced_out_matches_standard():
    g = open_grid()
    g.set_box(18.0, 12.0, 20.0, 28.0, OCCUPIED)
    start, goal = Pose2D(8, 20, 0), Pose2D(30, 20, 0)
    cfg_inf = PlannerConfig(w_rotation_fixed=1e9)
    p_std, _ = plan(g, start, goal, VEH, CFG, mode=STANDARD)
    p_ext, _ = plan(g, start, goal, VEH, cfg_inf, mode=EXTENDED)
    assert p_ext.n_rotations == 0
    assert p_ext.total_drive_length == pytest.approx(p_std.total_drive_length, abs=1e-9)


def test_determinism():
    g = open_grid()
    g.set_box(15.0, 10.0, 17.0, 30.0, OCCUPIED)
    start, goal = Pose2D(6, 20, 0), Pose2D(32, 20, math.pi / 2)
    p1, s1 = plan(g, start, goal, VEH, CFG)
    p2, s2 = plan(g, start, goal, VEH, CFG)
    assert s1.nodes_expanded == s2.nodes_expanded
    assert s1.nodes_created == s2.nodes_created
    assert p1.total_drive_length == p2.total_drive_length
    e1, e2 = p1.end_pose(), p2.end_pose()
    assert e1 == e2


# ------------------------------------------------------- analytic expansions

def test_analytic_free_space_equals_rs():
    g = open_grid()
    checker = _CollisionChecker(g, make_disk_set(VEH))
    pose, goal = Pose2D(10, 20, 0), Pose2D(25, 22, 0.5)
    suffix = analytic_expansions(pose, goal, checker, CFG, VEH.min_turn_radius,
                                 STANDARD, VEH.max_steer)
    assert suffix is not None
    assert suffix.total_drive_length == pytest.approx(
        rs_path_length(pose, goal, VEH.min_turn_radius), abs=1e-6)
    assert pose_close(suffix.end_pose(), goal)


def test_analytic_blocked_returns_none():
    g = open_grid()
    g.set_box(18.0, 0.5, 20.0, 39.5, OCCUPIED)  # full-height wall
    checker = _CollisionChecker(g, make_disk_set(VEH))
    suffix = analytic_expansions(Pose2D(10, 20, 0), Pose2D(30, 20, 0), checker,
                                 CFG, VEH.min_turn_radius, STANDARD, VEH.max_steer)
    assert suffix is None


def test_analytic_blocked_start_returns_none():
    """Every candidate starts at the pose, so a blocked pose admits none, even
    when the wall only grazes the start and the path drives away from it."""
    g = open_grid()
    g.set_box(7.65, 0.5, 7.95, 39.5, OCCUPIED)   # just behind the rear disk
    checker = _CollisionChecker(g, make_disk_set(VEH))
    assert checker.pose_blocked(10.0, 20.0, 0.0)
    assert not checker.pose_blocked(10.0 + CFG.collision_step, 20.0, 0.0)
    suffix = analytic_expansions(Pose2D(10, 20, 0), Pose2D(25, 20, 0), checker,
                                 CFG, VEH.min_turn_radius, STANDARD, VEH.max_steer)
    assert suffix is None


def test_analytic_extension_used_where_arcs_collide():
    """A hairpin junction too tight for the turning circles still admits the
    drive-rotate-drive connection through its rotation-sized bulge."""
    res = 0.15625
    g = OccupancyGrid.filled(int(40 / res), int(40 / res), res, OCCUPIED)
    g.set_box(1.0, 17.8, 26.0, 22.2, FREE)               # approach corridor
    d = (-math.sqrt(0.5), -math.sqrt(0.5))               # 135 degree stub
    for t in np.arange(0.0, 12.0, 0.25):
        g.set_disk(26.0 + t * d[0], 20.0 + t * d[1], 2.2, FREE)
    g.set_disk(26.0, 20.0, 3.8, FREE)                    # fits the swept circle
    checker = _CollisionChecker(g, make_disk_set(VEH))
    pose = Pose2D(6.0, 20.0, 0.0)
    goal = Pose2D(26.0 + 8.0 * d[0], 20.0 + 8.0 * d[1], -3 * math.pi / 4)
    rs_only = analytic_expansions(pose, goal, checker, CFG, VEH.min_turn_radius,
                                  STANDARD, VEH.max_steer)
    extended = analytic_expansions(pose, goal, checker, CFG, VEH.min_turn_radius,
                                   EXTENDED, VEH.max_steer)
    assert rs_only is None
    assert extended is not None
    assert extended.n_rotations == 1
    assert pose_close(extended.end_pose(), goal)


def _same_path(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if len(a.segments) != len(b.segments):
        return False
    for sa, sb in zip(a.segments, b.segments):
        if type(sa) is not type(sb):
            return False
        if isinstance(sa, RotationSegment):
            if sa != sb:
                return False
        elif sa.direction != sb.direction or not all(
                np.array_equal(getattr(sa, f), getattr(sb, f))
                for f in ("xs", "ys", "yaws", "kappas", "s")):
            return False
    return True


@pytest.mark.parametrize("mode", [STANDARD, EXTENDED])
def test_analytic_matches_whole_candidate_reference(mode):
    """Segment-wise array checks pick the same suffix, sample for sample, as
    sampling and checking each candidate whole, on criterion 7 scenes.

    Four in five start poses are drawn free, as the search's nodes are."""
    rng = np.random.default_rng(3107)
    disks = make_disk_set(VEH)
    outcomes = {True: 0, False: 0}
    for _ in range(25):
        g = clutter_scene(rng)
        checker = _CollisionChecker(g, disks)
        for i in range(10):
            while True:
                pose = Pose2D(rng.uniform(4, 22), rng.uniform(4, 22),
                              rng.uniform(-math.pi, math.pi))
                if i % 5 == 0 or not checker.pose_blocked(pose.x, pose.y, pose.yaw):
                    break
            reach = rng.choice([4.0, 9.0])
            goal = Pose2D(pose.x + rng.uniform(-reach, reach), pose.y + rng.uniform(-reach, reach),
                          rng.uniform(-math.pi, math.pi))
            direction = int(rng.choice([-1, 0, 1]))
            steer = float(rng.uniform(-VEH.max_steer, VEH.max_steer))
            args = (pose, goal, checker, CFG, VEH.min_turn_radius, mode, VEH.max_steer,
                    direction, steer)
            got = analytic_expansions(*args)
            assert _same_path(got, analytic_expansions_reference(*args))
            outcomes[got is None] += 1
    assert outcomes[True] >= 20 and outcomes[False] >= 20


# ------------------------------------------------ reconstruction and merging

def test_two_forward_primitives_merge():
    builder = PathBuilder(Pose2D(0, 0, 0))
    for x in np.arange(0.25, 2.5 + 1e-9, 0.25):
        builder.add_drive_sample(x, 0.0, 0.0, 0.0, 1)
    path = builder.finish()
    assert len(path.segments) == 1
    assert path.segments[0].arc_length == pytest.approx(2.5)


def test_drive_rotate_drive_segments():
    builder = PathBuilder(Pose2D(0, 0, 0))
    builder.add_drive_sample(1.0, 0.0, 0.0, 0.0, 1)
    builder.add_rotation(math.pi / 2)
    builder.add_drive_sample(1.0, 1.0, math.pi / 2, 0.0, 1)
    path = builder.finish()
    assert len(path.segments) == 3
    assert path.n_rotations == 1
    assert isinstance(path.segments[1], RotationSegment)
    # the gear does not "switch" across a rotation
    assert path.n_direction_switches == 0


def test_direction_switch_counting():
    builder = PathBuilder(Pose2D(0, 0, 0))
    builder.add_drive_sample(1.0, 0.0, 0.0, 0.0, 1)
    builder.add_drive_sample(0.5, 0.0, 0.0, 0.0, -1)
    builder.add_drive_sample(1.5, 0.0, 0.0, 0.0, 1)
    path = builder.finish()
    assert len(path.segments) == 3
    assert path.n_direction_switches == 2


# ----------------------------------------------------- path slicing / cursor

def test_slice_and_concat_continuity():
    g = open_grid()
    path, _ = plan(g, Pose2D(10, 20, 0), Pose2D(28, 24, 1.0), VEH, CFG)
    total = path.total_drive_length
    cut = total * 0.4
    prefix = path.slice(0.0, cut)
    assert prefix.total_drive_length == pytest.approx(cut, abs=1e-9)
    assert pose_close(prefix.end_pose(), path.pose_at(cut), pos_tol=1e-9)
    suffix = path.slice(cut, total)
    rejoined = prefix.concat(suffix)
    assert rejoined.total_drive_length == pytest.approx(total, abs=1e-6)
    assert pose_close(rejoined.end_pose(), path.end_pose(), pos_tol=1e-6)


def test_pose_at_pending_rotation_semantics():
    builder = PathBuilder(Pose2D(0, 0, 0))
    builder.add_drive_sample(1.0, 0.0, 0.0, 0.0, 1)
    builder.add_rotation(math.pi / 2)
    builder.add_drive_sample(1.0, 1.0, math.pi / 2, 0.0, 1)
    path = builder.finish()
    # at exactly the rotation's arc length the rotation is still pending
    assert path.pose_at(1.0).yaw == pytest.approx(0.0)
    # just past it, the rotation has been executed
    assert path.pose_at(1.0 + 1e-6).yaw == pytest.approx(math.pi / 2)
