from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hybridplan.geometry import Pose2D
from hybridplan.grid import FREE, OCCUPIED, OccupancyGrid
from hybridplan.heuristic import GoalBlockedError, build_distance_map
from hybridplan.planner import (BudgetExceededError, DriveSegment,
                                EXTENDED, NoPathError, PathBuilder, PlannedPath,
                                PlannerConfig, PlannerFailure, RotationSegment,
                                STANDARD, analytic_expansions,
                                cost_of, geometric_extension, plan, steps_cost)
from hybridplan import planner as planner_module, reeds_shepp as reeds_shepp_module
from hybridplan.reeds_shepp import rs_path_length
from hybridplan.vehicle import CollisionChecker, VehicleSpec

from conftest import angles_close, bordered_grid, clutter_scene, paint_disk, pose_close
from oracles import analytic_expansions_reference, plan_reference

VEH = VehicleSpec()
CFG = PlannerConfig()


def open_grid(width_m=40.0, height_m=40.0):
    return bordered_grid(width_m, height_m)


# ------------------------------------------------------------------ cost_of

def test_cost_plain_forward_meter():
    assert cost_of(0.0, 1, 1.0, CFG, parent_direction=1) == pytest.approx(1.0)


def test_cost_rotation_quarter_turn():
    expected = CFG.w_rotation_fixed + CFG.w_rotation_rate * math.pi / 2
    assert cost_of(0.0, 0, math.pi / 2, CFG) == pytest.approx(expected)
    assert expected == pytest.approx(5.0 + 2.0 * math.pi / 2)


def test_cost_zero_length_keeps_switch_penalty():
    c = cost_of(0.0, -1, 0.0, CFG, parent_direction=1)
    assert c == pytest.approx(CFG.w_switch)


def test_cost_reverse_and_steer_terms():
    c = cost_of(0.3, -1, 2.0, CFG, parent_direction=-1, parent_steer=0.1)
    expected = 2.0 * (1.0 + CFG.w_reverse) + CFG.w_steer * 0.3 + CFG.w_steer_change * 0.2
    assert c == pytest.approx(expected)


def test_steps_cost_walks_gear_and_steer():
    """A rotation resets gear and steer, so the reverse leg after it pays no
    switch; a reverse leg right after a forward one does."""
    rot = cost_of(0.0, 0, math.pi / 2, CFG)
    drive_rotate_drive = steps_cost([(0.0, 1, 2.0), (0.0, 0, math.pi / 2), (0.0, -1, 3.0)],
                                    CFG, direction=-1, steer=0.2)
    assert drive_rotate_drive == pytest.approx(
        2.0 + CFG.w_switch + CFG.w_steer_change * 0.2 + rot + 3.0 * (1.0 + CFG.w_reverse))
    assert steps_cost([(0.3, 1, 2.0), (0.0, -1, 3.0)], CFG) == pytest.approx(
        2.0 + 0.3 * (CFG.w_steer + CFG.w_steer_change)
        + 3.0 * (1.0 + CFG.w_reverse) + CFG.w_switch + CFG.w_steer_change * 0.3)
    assert steps_cost([], CFG, direction=1, steer=0.5) == 0.0


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
    """The failed search's stats count the nodes it expanded: the budget."""
    g = open_grid()
    cfg = PlannerConfig(node_budget=5, analytic_radius=0.001)
    with pytest.raises(BudgetExceededError) as failure:
        plan(g, Pose2D(5, 5, 0), Pose2D(35, 35, 2.0), VEH, cfg)
    assert failure.value.stats.nodes_expanded == 5


@pytest.mark.parametrize("mode", ["Extended", "bogus"])
def test_plan_rejects_an_unknown_mode(mode):
    """A mode other than STANDARD or EXTENDED is an error that names it, not
    a search without rotations."""
    with pytest.raises(ValueError, match=f"^unknown planner mode '{mode}'$"):
        plan(open_grid(), Pose2D(5, 5, 0), Pose2D(30, 5, 0), VEH, CFG, mode=mode)


def test_planned_path_is_collision_free(rng):
    g = open_grid()
    for _ in range(6):
        g.set_box(rng.uniform(8, 30), rng.uniform(8, 30),
                  rng.uniform(8, 30) + 2.0, rng.uniform(8, 30) + 2.0, OCCUPIED)
    checker = CollisionChecker(g, VEH.disks)
    start, goal = Pose2D(4, 4, 0), Pose2D(36, 36, math.pi / 2)
    try:
        path, _ = plan(g, start, goal, VEH, CFG)
    except NoPathError:
        pytest.skip("layout closed the route")
    for seg in path.segments:
        if isinstance(seg, DriveSegment):
            for x, y, yaw in zip(seg.xs, seg.ys, seg.yaws):
                assert not checker.pose_blocked(float(x), float(y), float(yaw))
        else:
            assert not checker.rotation_blocked(seg.x, seg.y)


def test_early_stop_first_trigger_semantics():
    g = bordered_grid(130, 12)
    goal = Pose2D(125, 6, 0.0)
    dm = build_distance_map(g, goal, CFG)
    start = Pose2D(5, 6, 0.0)
    path, _ = plan(g, start, goal, VEH, CFG, horizon=55.0)
    hd_start = dm.route_distance(start.x, start.y)
    end = path.end_pose()
    assert hd_start - dm.at(end.x, end.y) > 55.0
    # one drive sample earlier the drop must not yet have fired
    before = path.pose_at(max(path.total_drive_length - CFG.arc_length, 0.0))
    assert hd_start - dm.at(before.x, before.y) <= 55.0 + 1e-9


def test_early_stop_does_not_snap_to_goal():
    g = bordered_grid(130, 12)
    goal = Pose2D(125, 6, 0.0)
    path, _ = plan(g, Pose2D(5, 6, 0), goal, VEH, CFG, horizon=55.0)
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


# A yaw resolution that does not divide the circle leaves a short last yaw
# bin, so a key taken from an unnormalised yaw lands in another bin.
SEARCH_CONFIGS = [PlannerConfig(node_budget=1500),
                  PlannerConfig(yaw_resolution=math.radians(7.0), node_budget=1500),
                  PlannerConfig(xy_resolution=0.46875, arc_length=1.0, f_ext=2, node_budget=1500)]


def _free_pose(rng, checker, near_edge: bool) -> Pose2D:
    """A free pose inside the scene, or one within 3 m of the grid edge."""
    for _ in range(200):
        x, y = rng.uniform(0.3, 25.7, 2) if near_edge else rng.uniform(2.0, 24.0, 2)
        if near_edge and min(x, y, 26 - x, 26 - y) > 3.0:
            continue
        pose = Pose2D(float(x), float(y), float(rng.uniform(-math.pi, math.pi)))
        if not checker.pose_blocked(pose.x, pose.y, pose.yaw):
            return pose
    return pose


def _search_outcome(fn, *args, **kwargs):
    try:
        path, stats = fn(*args, **kwargs)
    except (PlannerFailure, GoalBlockedError) as exc:   # the route map rejects a blocked goal
        return None, (type(exc), str(exc))
    return path, (stats.nodes_expanded, stats.nodes_created)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), border=st.booleans(),
       mode=st.sampled_from([STANDARD, EXTENDED]),
       horizon=st.one_of(st.none(), st.floats(1.0, 15.0)),
       config=st.sampled_from(SEARCH_CONFIGS),
       start_direction=st.sampled_from([-1, 0, 1]),
       start_steer=st.floats(-VEH.max_steer, VEH.max_steer), near_edge=st.booleans())
def test_search_matches_reference(seed, border, mode, horizon, config,
                                  start_direction, start_steer, near_edge):
    """The child loop that keys and costs children first and checks only the
    survivors finds the same path, sample for sample, after the same number
    of expansions and children as the loop that checked every child, or
    fails the same way."""
    rng = np.random.default_rng(seed)
    g = clutter_scene(rng, border)
    checker = CollisionChecker(g, VEH.disks)
    start = _free_pose(rng, checker, near_edge)
    goal = _free_pose(rng, checker, False)
    args = (g, start, goal, VEH, config)
    kwargs = dict(mode=mode, horizon=horizon,
                  start_direction=start_direction, start_steer=start_steer)
    got_path, got = _search_outcome(plan, *args, **kwargs)
    ref_path, ref = _search_outcome(plan_reference, *args, **kwargs)
    assert got == ref
    assert _same_path(got_path, ref_path)


# ------------------------------------------------------- analytic expansions

def test_analytic_free_space_equals_rs():
    g = open_grid()
    checker = CollisionChecker(g, VEH.disks)
    pose, goal = Pose2D(10, 20, 0), Pose2D(25, 22, 0.5)
    suffix = analytic_expansions(pose, goal, checker, CFG, VEH, STANDARD)
    assert suffix is not None
    assert suffix.total_drive_length == pytest.approx(
        rs_path_length(pose, goal, VEH.min_turn_radius), abs=1e-6)
    assert pose_close(suffix.end_pose(), goal)


def test_analytic_blocked_returns_none():
    g = open_grid()
    g.set_box(18.0, 0.5, 20.0, 39.5, OCCUPIED)  # full-height wall
    checker = CollisionChecker(g, VEH.disks)
    suffix = analytic_expansions(Pose2D(10, 20, 0), Pose2D(30, 20, 0), checker,
                                 CFG, VEH, STANDARD)
    assert suffix is None


def test_analytic_blocked_start_returns_none():
    """Every candidate starts at the pose, so a blocked pose admits none, even
    when the wall only grazes the start and the path drives away from it."""
    g = open_grid()
    g.set_box(7.65, 0.5, 7.95, 39.5, OCCUPIED)   # just behind the rear disk
    checker = CollisionChecker(g, VEH.disks)
    assert checker.pose_blocked(10.0, 20.0, 0.0)
    assert not checker.pose_blocked(10.0 + CFG.collision_step, 20.0, 0.0)
    suffix = analytic_expansions(Pose2D(10, 20, 0), Pose2D(25, 20, 0), checker,
                                 CFG, VEH, STANDARD)
    assert suffix is None


def test_analytic_extension_used_where_arcs_collide():
    """A hairpin junction too tight for the turning circles still admits the
    drive-rotate-drive connection through its rotation-sized bulge."""
    res = 0.15625
    g = OccupancyGrid.filled(int(40 / res), int(40 / res), res, OCCUPIED)
    g.set_box(1.0, 17.8, 26.0, 22.2, FREE)               # approach corridor
    d = (-math.sqrt(0.5), -math.sqrt(0.5))               # 135 degree stub
    for t in np.arange(0.0, 12.0, 0.25):
        paint_disk(g, 26.0 + t * d[0], 20.0 + t * d[1], 2.2, FREE)
    paint_disk(g, 26.0, 20.0, 3.8, FREE)                 # fits the swept circle
    checker = CollisionChecker(g, VEH.disks)
    pose = Pose2D(6.0, 20.0, 0.0)
    goal = Pose2D(26.0 + 8.0 * d[0], 20.0 + 8.0 * d[1], -3 * math.pi / 4)
    rs_only = analytic_expansions(pose, goal, checker, CFG, VEH, STANDARD)
    extended = analytic_expansions(pose, goal, checker, CFG, VEH, EXTENDED)
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
    """The prefix batch and the full check of its survivors pick the same
    suffix, sample for sample, as sampling and checking each candidate
    whole, on criterion 7 scenes.

    Four in five start poses are drawn free, as the search's nodes are."""
    rng = np.random.default_rng(3107)
    disks = VEH.disks
    outcomes = {True: 0, False: 0}
    for _ in range(25):
        g = clutter_scene(rng)
        checker = CollisionChecker(g, disks)
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
            args = (pose, goal, checker, CFG, VEH, mode, direction, steer)
            got = analytic_expansions(*args)
            assert _same_path(got, analytic_expansions_reference(*args))
            outcomes[got is None] += 1
    assert outcomes[True] >= 20 and outcomes[False] >= 20


def _counting(monkeypatch, owner, name):
    """Count the calls of `owner.name`, which still runs."""
    calls = [0]
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_analytic_late_collision_matches_reference(monkeypatch):
    """A wall 13-18 m down a straight approach, beyond the 10 m that a word's
    first 64 samples cover, leaves the shortest words free in the prefix
    batch; the full check of those survivors must reject them, and the
    choice still matches the whole-candidate reference."""
    sampled = _counting(monkeypatch, planner_module, "sample_path")
    rng = np.random.default_rng(1516)
    found = 0
    for _ in range(12):
        g = open_grid()
        pose = Pose2D(4.0, 20.0 + rng.uniform(-1.0, 1.0), rng.uniform(-0.1, 0.1))
        x_wall, half = pose.x + rng.uniform(13.0, 17.0), rng.uniform(1.5, 6.0)
        g.set_box(x_wall, pose.y - half, x_wall + 1.0, pose.y + half, OCCUPIED)
        checker = CollisionChecker(g, VEH.disks)
        goal = Pose2D(rng.uniform(26.0, 34.0), pose.y + rng.uniform(-4.0, 4.0),
                      rng.uniform(-0.5, 0.5))
        args = (pose, goal, checker, CFG, VEH, STANDARD)
        got = analytic_expansions(*args)
        assert _same_path(got, analytic_expansions_reference(*args))
        found += got is not None
    # each found suffix takes one full sample, so the rest were rejected late
    assert 0 < found < sampled[0]


def test_analytic_work_counts(monkeypatch):
    """Each attempt solves the words once.  An attempt whose words all
    collide early checks them in one call and samples none in full; a free
    attempt samples only its winner in full."""
    g = OccupancyGrid.filled(256, 256, 0.15625, OCCUPIED)
    g.set_box(17.5, 18.0, 23.5, 22.0, FREE)               # a pocket around the pose
    pocket = CollisionChecker(g, VEH.disks)
    pose = Pose2D(20.0, 20.0, 0.0)
    assert not pocket.pose_blocked(pose.x, pose.y, pose.yaw)
    checks = _counting(monkeypatch, CollisionChecker, "batch_blocked")
    sampled = _counting(monkeypatch, planner_module, "sample_path")
    built = _counting(monkeypatch, planner_module, "rs_all_paths")
    solved = _counting(monkeypatch, reeds_shepp_module, "_solve")
    assert analytic_expansions(pose, Pose2D(32.0, 28.0, 1.0), pocket, CFG,
                               VEH, STANDARD) is None
    assert (checks[0], sampled[0], built[0], solved[0]) == (1, 0, 1, 1)

    checks[0] = built[0] = solved[0] = 0
    free = CollisionChecker(open_grid(), VEH.disks)
    assert analytic_expansions(Pose2D(10, 20, 0), Pose2D(25, 22, 0.5), free, CFG,
                               VEH, STANDARD) is not None
    assert (checks[0], sampled[0], built[0], solved[0]) == (2, 1, 1, 1)


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


def _drive_arrays(path):
    return [getattr(seg, name) for seg in path.segments if isinstance(seg, DriveSegment)
            for name in ("xs", "ys", "yaws", "kappas", "s")]


def test_planned_path_is_a_value():
    """A path and its segments cannot be changed after they are built: the
    segments are a tuple of frozen segments with read-only arrays, a list
    argument is converted, and slice, concat and a builder that goes on after
    finish make new paths.  A path equals only itself."""
    builder = PathBuilder(Pose2D(0, 0, 0))
    builder.add_drive_sample(1.0, 0.0, 0.0, 0.0, 1)
    builder.add_rotation(math.pi / 2)
    path = builder.finish()
    drive, rotation = path.segments
    with pytest.raises(dataclasses.FrozenInstanceError):
        path.segments = ()
    with pytest.raises(AttributeError):
        path.segments.append(drive)
    with pytest.raises(dataclasses.FrozenInstanceError):
        drive.xs = np.zeros(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rotation.delta = 0.0
    builder.add_drive_sample(1.0, 1.0, math.pi / 2, 0.0, 1)
    assert len(builder.finish().segments) == 3 and path.segments == (drive, rotation)
    listed = PlannedPath([drive, rotation])
    assert isinstance(listed.segments, tuple) and listed != path and path == path
    for made in (path, listed, path.slice(0.2, 0.8), path.concat(listed)):
        assert isinstance(made.segments, tuple)
        for values in _drive_arrays(made):
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 1.0


def test_drive_segment_leaves_the_callers_arrays_writable():
    xs = np.array([0.0, 1.0])
    seg = DriveSegment(xs, np.zeros(2), np.zeros(2), np.zeros(1), np.array([0.0, 1.0]), 1)
    assert xs.flags.writeable and not seg.xs.flags.writeable


@pytest.mark.parametrize("lengths", [
    (1, 1, 1, 0, 1),        # one sample: no interval
    (3, 3, 3, 3, 3),        # a kappa per sample, not per interval
    (3, 3, 3, 1, 3),        # too few kappas
    (3, 2, 3, 2, 3),        # ys one short
    (3, 3, 4, 2, 3),        # yaws one long
    (3, 3, 3, 2, 2),        # s one short
])
def test_drive_segment_rejects_mismatched_lengths(lengths):
    """A drive segment has n >= 2 samples of xs, ys, yaws and s, and n - 1
    interval curvatures; anything else raises."""
    arrays = [np.arange(k, dtype=float) for k in lengths]
    with pytest.raises(ValueError, match="drive segment"):
        DriveSegment(*arrays, 1)


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


@functools.lru_cache(maxsize=None)
def _cut_plan(case: int) -> PlannedPath:
    """Plans with gear switches, a rotation and merged search-plus-suffix
    drives: standard and extended, on open, narrow and cluttered maps; and a
    built path that starts with a rotation and has a second one inside."""
    if case == 4:
        builder = PathBuilder(Pose2D(0, 0, 0))
        builder.add_rotation(math.pi / 2)
        for i in range(1, 5):
            builder.add_drive_sample(0.0, i * 0.5, math.pi / 2, 0.0, 1)
        builder.add_rotation(-math.pi / 2)
        for i in range(1, 5):
            builder.add_drive_sample(i * 0.5, 2.0, 0.0, 0.0, 1)
        return builder.finish()
    if case == 0:
        return plan(open_grid(), Pose2D(10, 20, 0), Pose2D(14, 22, math.pi), VEH, CFG)[0]
    if case == 1:
        return plan(bordered_grid(30, 8), Pose2D(5, 4, 0), Pose2D(20, 4, math.pi), VEH, CFG,
                    EXTENDED)[0]
    grid = clutter_scene(np.random.default_rng(case - 1))
    return plan(grid, Pose2D(3.5, 3.5, 0), Pose2D(22, 21, math.pi / 2), VEH, CFG,
                (STANDARD, EXTENDED)[case % 2])[0]


@settings(max_examples=80, deadline=None)
@given(case=st.integers(0, 4), cuts=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2,
                                              unique=True),
       on_rotation=st.sampled_from([None, 0, 1]), pick=st.integers(0, 7),
       probes=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
@example(case=1, cuts=[2.220446049250313e-16, 0.0], on_rotation=1, pick=0, probes=[0.0])
def test_slice_concat_round_trip(case, cuts, on_rotation, pick, probes):
    """Cutting a plan at s0 <= s1 and concatenating the three slices keeps its
    drive length, rotations, and pose and gear along the drive arc length;
    also when a cut lies exactly on a rotation.  In the explicit example the
    first slice drops a sub-picometre drive, so the rejoined path reaches the
    rotation just before s1: within 1e-9 the rotation is still pending."""
    path = _cut_plan(case)
    total = path.total_drive_length
    cut_s = [f * total for f in cuts]
    rotation_s = [acc for acc, seg in path.walk() if isinstance(seg, RotationSegment)]
    if on_rotation is not None and rotation_s:
        cut_s[on_rotation] = rotation_s[pick % len(rotation_s)]
    s0, s1 = sorted(cut_s)
    rejoined = path.slice(0.0, s0).concat(path.slice(s0, s1)).concat(path.slice(s1, total))
    assert rejoined.total_drive_length == pytest.approx(total, abs=1e-9)
    assert rejoined.n_rotations == path.n_rotations
    for s in [s0, s1] + [f * total for f in probes]:
        assert pose_close(rejoined.pose_at(s), path.pose_at(s), pos_tol=1e-9, yaw_tol=1e-9)
        direction, kappa = rejoined.gear_at(s)
        assert (direction, kappa) == pytest.approx(path.gear_at(s), abs=1e-12)


def test_slice_keeps_a_rotation_at_a_cut_once():
    """A rotation exactly at a cut opens the right-hand slice, one at the
    start opens the first, and an executed one is left out."""
    builder = PathBuilder(Pose2D(0, 0, 0))
    builder.add_drive_sample(1.0, 0.0, 0.0, 0.0, 1)
    builder.add_rotation(math.pi / 2)
    builder.add_drive_sample(1.0, 1.0, math.pi / 2, 0.0, 1)
    path = builder.finish()
    assert (path.slice(0.0, 1.0).n_rotations, path.slice(1.0, 2.0).n_rotations) == (0, 1)
    assert path.slice(0.0, 1.0).concat(path.slice(1.0, 2.0)).n_rotations == 1
    assert path.slice(1.0, 2.0, rotations_done=1).n_rotations == 0
    assert path.slice(1.0, 1.0).n_rotations == 0          # an empty window keeps nothing

    builder = PathBuilder(Pose2D(0, 0, 0))
    builder.add_rotation(math.pi / 2)
    builder.add_drive_sample(0.0, 2.0, math.pi / 2, 0.0, 1)
    builder.add_rotation(math.pi / 2)
    starts_and_ends = builder.finish()
    assert starts_and_ends.slice(0.0, 2.0).n_rotations == 2
    assert starts_and_ends.slice(0.0, 1.0).n_rotations == 1


def test_pose_at_pending_rotation_semantics():
    builder = PathBuilder(Pose2D(0, 0, 0))
    builder.add_drive_sample(1.0, 0.0, 0.0, 0.0, 1)
    builder.add_rotation(math.pi / 2)
    builder.add_drive_sample(1.0, 1.0, math.pi / 2, 0.0, 1)
    path = builder.finish()
    # at the rotation's arc length, and within 1e-9 past it, the rotation is still pending
    assert path.pose_at(1.0).yaw == pytest.approx(0.0)
    assert path.pose_at(1.0 + 5e-10).yaw == pytest.approx(0.0)
    # just past it, the rotation has been executed
    assert path.pose_at(1.0 + 1e-6).yaw == pytest.approx(math.pi / 2)
