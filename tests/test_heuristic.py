from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridplan.geometry import Pose2D
from hybridplan.grid import FREE, OCCUPIED, UNKNOWN, OccupancyGrid, _downsample_blocked
from hybridplan.heuristic import (AStarPath, DistanceMap, GoalBlockedError, NoRouteError,
                                  _repair_flood, build_distance_map, detect_divergence,
                                  extract_astar_path, waypose_at)
from hybridplan.planner import PlannerConfig

from oracles import (build_distance_map_reference, dijkstra_cost_to_go,
                     downsample_blocked_reference, extract_astar_path_reference,
                     nearest_reachable_cell_reference, successor_table_reference)

CFG = PlannerConfig()


def empty_grid(width_m, height_m, res=0.15625):
    return OccupancyGrid.filled(int(round(width_m / res)), int(round(height_m / res)),
                                res, FREE)


def test_one_straight_step_costs_planning_resolution():
    g = empty_grid(20, 20)
    dm = build_distance_map(g, Pose2D(10.0, 10.0, 0.0), CFG)
    gx, gy = dm.goal_cell
    assert dm.values[gy, gx + 1] == pytest.approx(0.625)


def test_goal_cell_is_zero():
    g = empty_grid(20, 20)
    dm = build_distance_map(g, Pose2D(10.0, 10.0, 0.0), CFG)
    gx, gy = dm.goal_cell
    assert dm.values[gy, gx] == 0.0


def test_matches_reference_dijkstra_through_wall_gap():
    g = empty_grid(10, 10)
    g.set_box(5.0, 0.0, 5.5, 7.0, OCCUPIED)   # wall with a gap at the top
    dm = build_distance_map(g, Pose2D(8.0, 2.0, 0.0), PlannerConfig(inflation_radius=0.5))
    expect = dijkstra_cost_to_go(dm.blocked, (dm.goal_cell[1], dm.goal_cell[0]), 0.625)
    assert np.allclose(dm.values, expect, atol=1e-9, equal_nan=True)


def test_flood_reused_only_for_equal_inputs():
    """A map, flood and successor table, is reused when its blocked grid
    equals that of the previous generation's map for the same goal cell,
    resolution and radius, and is otherwise rebuilt as on a fresh grid."""
    g = empty_grid(20, 20)
    g.set_box(5.0, 0.0, 5.5, 12.0, OCCUPIED)
    g.set_cells((slice(100, 110), slice(100, 110)), UNKNOWN)   # counts as free
    goal = Pose2D(15.0, 3.0, 0.0)
    coarse = PlannerConfig(xy_resolution=1.25)
    first = build_distance_map(g, goal, CFG)
    for dm in (first, build_distance_map(g, goal, coarse)):
        with pytest.raises(ValueError):
            dm.values[0, 0] = 1.0
        with pytest.raises(ValueError):
            dm.blocked[0, 0] = True
    second = build_distance_map(g, goal, coarse)
    g.set_cells((slice(100, 110), slice(100, 110)), FREE)      # blocked grid unchanged
    assert build_distance_map(g, goal, coarse) is second        # successor table kept too
    assert build_distance_map(g, Pose2D(15.2, 3.1, 0.0), coarse) is second
    for change in (lambda: None, lambda: g.set_box(9.0, 6.0, 10.0, 14.0, OCCUPIED)):
        change()
        for goal_ in (goal, Pose2D(12.0, 3.0, 0.0)):
            dm = build_distance_map(g, goal_, CFG)
            fresh = build_distance_map(g.copy(), goal_, CFG)
            assert np.array_equal(dm.values, fresh.values)
            assert np.array_equal(dm.blocked, fresh.blocked)
            assert dm.goal_cell == fresh.goal_cell


def test_goal_blocked_raises():
    g = empty_grid(10, 10)
    g.set_box(4.0, 4.0, 6.0, 6.0, OCCUPIED)
    with pytest.raises(GoalBlockedError, match="goal blocked"):
        build_distance_map(g, Pose2D(5.0, 5.0, 0.0), CFG)


@pytest.mark.parametrize("radius", [-0.5, math.nan])
def test_negative_inflation_radius_raises(radius):
    with pytest.raises(ValueError, match="inflation_radius must be non-negative"):
        build_distance_map(empty_grid(10, 10), Pose2D(5.0, 5.0, 0.0),
                           PlannerConfig(inflation_radius=radius))


def test_resolution_off_the_grid_raises_naming_xy_resolution():
    with pytest.raises(ValueError, match="xy_resolution must be an integer multiple"):
        build_distance_map(empty_grid(10, 10), Pose2D(5.0, 5.0, 0.0),
                           PlannerConfig(xy_resolution=0.5))


def test_consistency_over_neighbors(rng):
    g = empty_grid(20, 20)
    for _ in range(8):
        g.set_box(rng.uniform(2, 16), rng.uniform(2, 16),
                  rng.uniform(2, 16) + 2.0, rng.uniform(2, 16) + 2.0, OCCUPIED)
    try:
        dm = build_distance_map(g, Pose2D(18.0, 18.0, 0.0), CFG)
    except GoalBlockedError:
        pytest.skip("goal landed in an obstacle for this layout")
    h, w = dm.values.shape
    res, diag = 0.625, 0.625 * math.sqrt(2.0)
    for iy in range(h):
        for ix in range(w):
            v = dm.values[iy, ix]
            if not math.isfinite(v):
                continue
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dx == dy == 0 or not (0 <= ix + dx < w and 0 <= iy + dy < h):
                        continue
                    n = dm.values[iy + dy, ix + dx]
                    if math.isfinite(n):
                        edge = diag if dx and dy else res
                        assert v <= n + edge + 1e-9


# A goal on a coarse-cell boundary: `Raster.cell_of` floors it into the
# higher cell, while `nearest_reachable_cell` breaks the distance tie towards
# the lower row-major index.  Every bundled goal lies on a boundary, so the
# fix changes the bundled outputs and waits for a reference refresh.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "cell_of and nearest_reachable_cell disagree on a boundary point: the route "
    "from a boundary goal starts one cell off goal_cell and reads 0.625 m"))
def test_route_from_a_boundary_goal_starts_at_the_goal_cell():
    dm = build_distance_map(OccupancyGrid.filled(128, 128, 0.15625, FREE),
                            Pose2D(15.0, 12.0, 0.0), CFG)
    assert dm.goal_cell == (24, 19)
    assert dm.nearest_reachable_cell(15.0, 12.0) == dm.goal_cell
    assert dm.route_distance(15.0, 12.0) == 0.0
    assert extract_astar_path(dm, Pose2D(15.0, 12.0, 0.0)).points.shape[0] == 1


# ------------------------------------------------- flood repair and pooling

def flooded_map(previous, blocked, goal_cell, res=0.625):
    """The route map of `blocked`, flooded from `previous` (None: the empty map)."""
    values, successor = _repair_flood(previous, blocked, goal_cell, res)
    return DistanceMap(values, res, math.inf, blocked=blocked, goal_cell=goal_cell,
                       successor=successor)


def coarse_map(blocked, goal_cell, res=0.625):
    """The route map of `blocked`, flooded from the empty map."""
    return flooded_map(None, blocked, goal_cell, res)


def assert_repair_is_full_flood(before, after, goal_cell, res=0.625):
    """A fresh flood of `before` gives the heap Dijkstra's values, and
    repairing its map to the grown grid `after` gives a fresh flood's
    values (and the heap Dijkstra's) and successor table bit for bit;
    returns the map of `before` and the fresh one."""
    previous = coarse_map(before, goal_cell, res)
    assert np.array_equal(previous.values, dijkstra_cost_to_go(before, goal_cell[::-1], res))
    repaired = flooded_map(previous, after, goal_cell, res)
    fresh = coarse_map(after, goal_cell, res)
    assert np.array_equal(repaired.values, fresh.values)
    assert np.array_equal(repaired.values, dijkstra_cost_to_go(after, goal_cell[::-1], res))
    assert np.array_equal(np.asarray(repaired.successor), np.asarray(fresh.successor))
    return previous, fresh


def assert_tables_match_reference(before, after, goal_cell, res=0.625):
    """The successor tables of a fresh flood of `before` and of its repair
    to the grown grid `after` equal the reference table of their values,
    format and bytes."""
    previous = coarse_map(before, goal_cell, res)
    for dm in (previous, flooded_map(previous, after, goal_cell, res)):
        expect = successor_table_reference(dm.values, res)
        assert dm.successor.format == expect.format == "i"
        assert dm.successor.tobytes() == expect.tobytes()


# coarse grids from open (ties everywhere) to mazes, grown by random newly
# blocked cells, cut-off pockets included
GROWN_GRIDS = (st.integers(1, 14), st.integers(1, 14), st.sampled_from([0.0, 0.1, 0.3, 0.5]),
               st.sampled_from([0.0, 0.02, 0.1, 0.3]), st.sampled_from([0.625, 0.3, 1.0]),
               st.integers(0, 2**32 - 1))


def grown_grid(h, w, fill, grow, seed):
    """A random blocked grid, the same grown, and a goal cell free in both."""
    r = np.random.default_rng(seed)
    goal = (int(r.integers(w)), int(r.integers(h)))
    before = r.random((h, w)) < fill
    after = before | (r.random((h, w)) < grow)
    before[goal[1], goal[0]] = after[goal[1], goal[0]] = False
    return before, after, goal


@settings(max_examples=400, deadline=None)
@given(*GROWN_GRIDS)
def test_repair_matches_full_flood(h, w, fill, grow, res, seed):
    """Random grids flooded fresh and then repaired."""
    before, after, goal = grown_grid(h, w, fill, grow, seed)
    assert_repair_is_full_flood(before, after, goal, res)


@settings(max_examples=400, deadline=None)
@given(*GROWN_GRIDS)
def test_successor_tables_match_the_reference(h, w, fill, grow, res, seed):
    """Random grids flooded fresh and then repaired: both tables."""
    before, after, goal = grown_grid(h, w, fill, grow, seed)
    assert_tables_match_reference(before, after, goal, res)


# '.' free, '#' blocked before and after, '+' newly blocked, 'G' the goal
REPAIR_CASES = {
    # cell (2, 1) reaches G at the same cost through (1, 0) and (1, 1); its
    # successor is the first of them, which becomes blocked, or the second
    "tie_on_the_chain": ("G+.", "...", "..."),
    "tie_off_the_chain": ("G..", ".+.", "..."),
    "pocket_cut_off": ("G..#...", "...#...", "...+...", "...#..."),
    "block_next_to_goal": ("....", ".G+.", "...."),
    "no_new_block": ("G.#.", "..#.", "...."),
}


@pytest.mark.parametrize("case", list(REPAIR_CASES))
def test_repair_named_cases(case):
    art = np.array([list(row) for row in REPAIR_CASES[case]])
    iy, ix = np.argwhere(art == "G")[0]
    previous, fresh = assert_repair_is_full_flood(art == "#", np.isin(art, ["#", "+"]),
                                                  (int(ix), int(iy)))
    changed = previous.values != fresh.values
    if case.startswith("tie"):
        assert previous.values[1, 2] == fresh.values[1, 2]
        assert (previous.successor[5], fresh.successor[5]) == ((1, 4) if case == "tie_on_the_chain"
                                                              else (1, 1))
    elif case == "pocket_cut_off":
        assert np.isfinite(previous.values[:, 4:]).all() and np.isinf(fresh.values[:, 4:]).all()
    elif case == "block_next_to_goal":
        assert np.isinf(fresh.values[1, 2]) and changed[1, 3]
    else:
        assert not changed.any()


@pytest.mark.parametrize("case", list(REPAIR_CASES))
def test_successor_table_named_cases(case):
    art = np.array([list(row) for row in REPAIR_CASES[case]])
    iy, ix = np.argwhere(art == "G")[0]
    assert_tables_match_reference(art == "#", np.isin(art, ["#", "+"]), (int(ix), int(iy)))


def test_route_maps_repaired_or_flooded_match_fresh_builds(floods):
    """Through the memo: grown obstacles repair the previous map, a cell
    that leaves the blocked grid floods from the empty map, and every map
    equals the one built from scratch (values, blocked grid and successor
    table)."""
    g = OccupancyGrid.filled(166, 90, 0.15625, UNKNOWN)      # 166 % 4 == 2
    goal = Pose2D(24.0, 3.0, 0.0)
    edits = [(5.0, 0.0, 5.5, 9.0, OCCUPIED), (10.0, 4.0, 12.0, 14.0, OCCUPIED),
             (25.6, 10.0, 26.0, 14.0, OCCUPIED), (10.0, 4.0, 12.0, 14.0, FREE),
             (15.0, 0.0, 15.3, 14.0, OCCUPIED)]
    kinds = []
    for box in [None] + edits:
        if box is not None:
            g.set_box(*box)
        n = len(floods)
        dm = build_distance_map(g, goal, CFG)
        kinds += floods[n:]
        fresh = build_distance_map_reference(g, goal, CFG)
        assert np.array_equal(dm.values, fresh.values)
        assert np.array_equal(dm.blocked, fresh.blocked)
        assert np.array_equal(np.asarray(dm.successor), np.asarray(fresh.successor))
    assert kinds == ["full", "repair", "repair", "repair", "full", "repair"]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 6), st.floats(0.0, 0.3),
       st.integers(0, 2**32 - 1))
def test_strided_pool_matches_reshaped_pool(h, w, factor, fill, seed):
    """Sides that are not a multiple of the factor pool with zero padding."""
    fine = np.random.default_rng(seed).random((h, w)) < fill
    assert np.array_equal(_downsample_blocked(fine, factor), downsample_blocked_reference(fine, factor))


@pytest.mark.parametrize("box", [(slice(32, 35), slice(165, 166)),    # last partial column
                                 (slice(36, 37), slice(0, 1)),        # last partial row
                                 (slice(0, 1), slice(0, 1))])
def test_pool_at_the_grid_edge(box):
    """A clutter-sized grid, 166 x 37 fine cells (166 % 4 == 2, 37 % 4 == 1),
    with one block of blocked fine cells."""
    fine = np.zeros((37, 166), dtype=bool)
    fine[box] = True
    pooled = _downsample_blocked(fine, 4)
    assert pooled.shape == (10, 42) and pooled.sum() == 1
    assert np.array_equal(pooled, downsample_blocked_reference(fine, 4))


# ------------------------------------------------------------- extraction

def test_extract_start_at_goal_single_point():
    g = empty_grid(20, 20)
    dm = build_distance_map(g, Pose2D(10.0, 10.0, 0.0), CFG)
    center = dm.cell_center(*dm.goal_cell)
    path = extract_astar_path(dm, Pose2D(center[0], center[1], 0.0))
    assert path.points.shape[0] == 1
    assert path.length == 0.0


def test_extract_descent_length_equals_cost_to_go():
    g = empty_grid(30, 30)
    g.set_box(12.0, 4.0, 14.0, 26.0, OCCUPIED)   # U-ish wall to walk around
    dm = build_distance_map(g, Pose2D(25.0, 15.0, 0.0), CFG)
    start = Pose2D(5.0, 15.0, 0.0)
    path = extract_astar_path(dm, start)
    start_cell = dm.nearest_reachable_cell(start.x, start.y)
    expected = dm.values[start_cell[1], start_cell[0]]
    assert path.length == pytest.approx(expected, abs=1e-9)


def test_extract_unobstructed_is_near_straight():
    g = empty_grid(40, 10)
    dm = build_distance_map(g, Pose2D(35.0, 5.0, 0.0), CFG)
    path = extract_astar_path(dm, Pose2D(5.0, 5.0, 0.0))
    direct = math.hypot(*(path.points[-1] - path.points[0]))
    assert path.length <= direct + 2 * 0.625 * math.sqrt(2.0)
    # 8-connected: successive points one cell apart
    steps = np.hypot(*np.diff(path.points, axis=0).T)
    assert np.all(steps <= 0.625 * math.sqrt(2.0) + 1e-9)


def test_extract_unreachable_raises():
    g = empty_grid(20, 20)
    g.set_box(8.0, 0.0, 10.0, 20.0, OCCUPIED)   # full split
    dm = build_distance_map(g, Pose2D(15.0, 10.0, 0.0), CFG)
    with pytest.raises(NoRouteError, match="no 2D route"):
        extract_astar_path(dm, Pose2D(3.0, 10.0, 0.0))


def test_descent_terminates_within_cell_budget(rng):
    for _ in range(10):
        g = empty_grid(25, 25)
        for _ in range(10):
            g.set_box(rng.uniform(2, 20), rng.uniform(2, 20),
                      rng.uniform(2, 20) + 1.5, rng.uniform(2, 20) + 1.5, OCCUPIED)
        try:
            dm = build_distance_map(g, Pose2D(22.0, 22.0, 0.0), CFG)
            path = extract_astar_path(dm, Pose2D(2.5, 2.5, 0.0))
        except (GoalBlockedError, NoRouteError):
            continue
        assert path.points.shape[0] <= dm.values.size


def route_or_error(extract, dmap, start):
    """The route's bytes, or the type and message of the error it raised."""
    try:
        path = extract(dmap, start)
    except NoRouteError as exc:
        return type(exc), str(exc)
    assert path.points.dtype == path.cumulative_s.dtype == np.float64
    return path.points.shape, path.points.tobytes(), path.cumulative_s.tobytes()


def assert_same_route(dmap, start):
    """The successor walk equals the scalar neighbour loop byte for byte,
    or both raise the same error; returns that outcome."""
    outcome = route_or_error(extract_astar_path, dmap, start)
    assert outcome == route_or_error(extract_astar_path_reference, dmap, start)
    return outcome


@st.composite
def box_maps(draw):
    """Small maps of random boxes (none: an open map full of ties), a goal,
    and a start anywhere from off the grid to the goal cell itself."""
    width, height = draw(st.integers(3, 14)), draw(st.integers(3, 14))
    g = empty_grid(width, height)
    for _ in range(draw(st.integers(0, 6))):
        x, y = draw(st.floats(0, width)), draw(st.floats(0, height))
        g.set_box(x, y, x + draw(st.floats(0.2, 6.0)), y + draw(st.floats(0.2, 6.0)), OCCUPIED)
    goal = Pose2D(draw(st.floats(0, width)), draw(st.floats(0, height)), 0.0)
    if draw(st.booleans()):
        start = goal
    else:
        start = Pose2D(draw(st.floats(-2.0, width + 2.0)), draw(st.floats(-2.0, height + 2.0)), 0.0)
    return g, goal, start, draw(st.sampled_from([0.0, 0.3, 1.0]))


@settings(max_examples=300, deadline=None)
@given(box_maps())
def test_successor_walk_matches_scalar_descent(case):
    g, goal, start, inflation = case
    try:
        dm = build_distance_map(g, goal, PlannerConfig(inflation_radius=inflation))
    except GoalBlockedError:
        return
    assert_same_route(dm, start)


def hand_map(values, goal_cell, res=0.625):
    values = np.array(values, dtype=float)
    return DistanceMap(values, res, math.inf, blocked=~np.isfinite(values), goal_cell=goal_cell,
                       successor=successor_table_reference(values, res))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_successor_walk_matches_scalar_descent_on_any_values(h, w, data):
    """Hand-built values from a few levels, so ties, plateaus, cycles,
    isolated cells, NaN and -inf all occur; the goal may be off the grid."""
    levels = st.sampled_from([0.0, 0.625, 1.25, 0.625 * math.sqrt(2.0), 3.0,
                              math.inf, math.nan, -math.inf])
    values = data.draw(st.lists(st.lists(levels, min_size=w, max_size=w), min_size=h, max_size=h))
    goal = (data.draw(st.integers(-1, w)), data.draw(st.integers(-1, h)))
    start = Pose2D(data.draw(st.floats(-1.0, w * 0.625 + 1.0)),
                   data.draw(st.floats(-1.0, h * 0.625 + 1.0)), 0.0)
    assert_same_route(hand_map(values, goal), start)


@pytest.mark.parametrize("case", ["open_ties", "start_at_goal", "unreachable", "off_grid"])
def test_successor_walk_named_cases(case):
    g = empty_grid(20, 20)
    goal, start = Pose2D(15.3, 12.2, 0.0), Pose2D(3.0, 4.0, 0.0)
    if case == "start_at_goal":
        start = goal
    elif case == "unreachable":
        g.set_box(8.0, 0.0, 10.0, 20.0, OCCUPIED)
    elif case == "off_grid":
        start = Pose2D(-5.0, 4.0, 0.0)
    outcome = assert_same_route(build_distance_map(g, goal, CFG), start)
    if case in ("unreachable", "off_grid"):
        assert outcome == (NoRouteError, "no 2D route")
    else:
        assert outcome[0][0] == (1 if case == "start_at_goal" else 21)   # 20 diagonal-led steps


@pytest.mark.parametrize("extract", [extract_astar_path, extract_astar_path_reference])
def test_descent_that_cycles_raises(extract):
    """Cells 0 and 1 are each other's steepest neighbour, so the walk from
    cell 0 never reaches the goal cell 2 and the step guard ends it."""
    dm = hand_map([[0.0, 0.0, 5.0]], goal_cell=(2, 0))
    assert list(dm.successor) == [1, 0, 1]
    with pytest.raises(NoRouteError, match="^descent did not reach the goal cell$"):
        extract(dm, Pose2D(0.3, 0.3, 0.0))


@pytest.mark.parametrize("extract", [extract_astar_path, extract_astar_path_reference])
def test_isolated_finite_cell_has_no_route(extract):
    inf = math.inf
    dm = hand_map([[inf, inf, inf], [inf, 2.0, inf], [inf, inf, inf]], goal_cell=(0, 0))
    assert dm.successor[4] == -1
    with pytest.raises(NoRouteError, match="^no 2D route$"):
        extract(dm, Pose2D(0.9, 0.9, 0.0))


def test_successor_table_is_read_only():
    dm = build_distance_map(empty_grid(10, 10), Pose2D(5.0, 5.0, 0.0), CFG)
    assert dm.successor.readonly and dm.successor.format == "i"
    assert len(dm.successor) == dm.values.size


# ------------------------------------------------------------ route reuse

def full_route_or_error(dmap, start, previous=None):
    """The shape and bytes of the route's points, arc lengths, cells and
    edges, or the type and message of the error it raised."""
    try:
        path = extract_astar_path(dmap, start, previous)
    except NoRouteError as exc:
        return type(exc), str(exc)
    arrays = (path.points, path.cumulative_s, path.cells, path.edges)
    return path.points.shape, tuple(a.tobytes() for a in arrays)


def point_in(dmap, cell, jitter):
    """A point strictly inside `cell`, `jitter` (each in (-0.5, 0.5)) cells off its centre."""
    cx, cy = dmap.cell_center(*cell)
    return Pose2D(cx + jitter[0] * dmap.resolution, cy + jitter[1] * dmap.resolution, 0.0)


START_KINDS = ["on_route", "route_start", "off_route", "goal", "off_grid"]


@settings(max_examples=400, deadline=None)
@given(box_maps(), st.sampled_from(START_KINDS), st.data())
def test_route_given_a_previous_route_equals_a_fresh_walk(case, kind, data):
    """For starts a and b on one map, the route from b given a's route equals
    b's route walked from scratch, bytes or raised error, for b on a's route,
    in a's own start cell, off the route, at the goal cell or off the grid;
    a b whose cell is on a's route is cut from it, no copy."""
    g, goal, a, inflation = case
    try:
        dm = build_distance_map(g, goal, PlannerConfig(inflation_radius=inflation))
        previous = extract_astar_path(dm, a)
    except (GoalBlockedError, NoRouteError):
        return
    h, w = dm.values.shape
    jitter = (data.draw(st.floats(-0.45, 0.45)), data.draw(st.floats(-0.45, 0.45)))
    on_route = previous.cells.tolist()
    if kind == "off_grid":
        along = data.draw(st.floats(-2.0, max(h, w) * dm.resolution + 2.0))
        out = data.draw(st.sampled_from([-1e-9, -2.0, w * dm.resolution, w * dm.resolution + 2.0]))
        b = Pose2D(out, along, 0.0) if data.draw(st.booleans()) else Pose2D(along, out * h / w, 0.0)
    elif kind == "off_route":
        off = sorted(set(range(h * w)) - set(on_route))
        if not off:
            return
        b = point_in(dm, divmod(data.draw(st.sampled_from(off)), w)[::-1], jitter)
    else:
        c = {"on_route": data.draw(st.sampled_from(on_route)), "route_start": on_route[0],
             "goal": dm.goal_cell[1] * w + dm.goal_cell[0]}[kind]
        b = point_in(dm, divmod(c, w)[::-1], jitter)
    outcome = full_route_or_error(dm, b, previous)
    assert outcome == full_route_or_error(dm, b)
    if kind in ("on_route", "route_start", "goal"):
        route = extract_astar_path(dm, b, previous)
        assert np.shares_memory(route.points, previous.points)
        assert (route is previous) == (route.cells[0] == on_route[0])


def test_route_cut_from_a_staircase_accumulates_its_own_arc_length():
    """On a staircase of alternating diagonal and straight edges, a suffix's
    arc lengths differ from the previous route's minus its offset in the
    last bits; every suffix equals a walk from its first cell, byte for byte."""
    res, n = 0.625, 120
    cells, ix, iy = [], 0, 0
    for k in range(n):                    # steps +(1, 1), +(1, 0), +(1, 1), ...
        cells.append((ix, iy))
        ix, iy = ix + 1, iy + (k % 2 == 0)
    gx, gy = cells[-1]
    values = np.full((gy + 1, gx + 1), np.inf)
    values[gy, gx] = 0.0
    for (ax, ay), (bx, by) in zip(cells[-2::-1], cells[:0:-1]):
        values[ay, ax] = values[by, bx] + (res * math.sqrt(2.0) if ay != by else res)
    dm = hand_map(values, (gx, gy))
    previous = extract_astar_path(dm, Pose2D(*dm.cell_center(*cells[0]), 0.0))
    assert previous.points.shape[0] == n
    shifted = 0
    for k, cell in enumerate(cells):
        start = point_in(dm, cell, (0.2, -0.3))
        assert full_route_or_error(dm, start, previous) == full_route_or_error(dm, start)
        shifted += (previous.cumulative_s[k:] - previous.cumulative_s[k]).tobytes() != \
            extract_astar_path(dm, start).cumulative_s.tobytes()
    assert shifted > 0


def test_route_from_another_map_object_is_walked():
    """A previous route from a map object with equal values is not reused."""
    g = empty_grid(20, 20)
    g.set_box(8.0, 2.0, 10.0, 18.0, OCCUPIED)
    dm = build_distance_map(g, Pose2D(15.0, 10.0, 0.0), CFG)
    twin = DistanceMap(dm.values, dm.resolution, math.inf,
                       blocked=dm.blocked, goal_cell=dm.goal_cell, successor=dm.successor)
    previous = extract_astar_path(dm, Pose2D(3.0, 4.0, 0.0))
    for start in (Pose2D(3.0, 4.0, 0.0), Pose2D(*previous.points[5], 0.0)):
        assert np.shares_memory(extract_astar_path(dm, start, previous).points, previous.points)
        route = extract_astar_path(twin, start, previous)
        assert route.source is twin and not np.shares_memory(route.points, previous.points)
        assert full_route_or_error(twin, start, previous) == full_route_or_error(dm, start)


def test_route_arrays_are_read_only():
    dm = build_distance_map(empty_grid(20, 20), Pose2D(15.0, 10.0, 0.0), CFG)
    walked = extract_astar_path(dm, Pose2D(3.0, 4.0, 0.0))
    cut = extract_astar_path(dm, Pose2D(*walked.points[3], 0.0), walked)
    for route in (walked, cut):
        for array in (route.points, route.cumulative_s, route.cells, route.edges):
            assert not array.flags.writeable


@settings(max_examples=200, deadline=None)
@given(box_maps(), st.one_of(st.just(0.0), st.floats(0.0, 100.0)))
def test_a_route_never_diverges_from_itself(case, d_div):
    g, goal, start, inflation = case
    try:
        dm = build_distance_map(g, goal, PlannerConfig(inflation_radius=inflation))
        route = extract_astar_path(dm, start)
    except (GoalBlockedError, NoRouteError):
        return
    assert detect_divergence(route, route, d_div) is None


# ----------------------------------------------------------- nearest cell

@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.data())
def test_nearest_reachable_cell_matches_the_full_scan(h, w, data):
    """The 3 x 3 scan of a finite own cell picks the cell, tie rule included,
    of the 5 x 5 scan: at every centre, edge midpoint and corner of the grid
    and its two-cell rim, and at random points from on or off the grid, in
    finite and non-finite own cells."""
    levels = st.sampled_from([0.0, 1.0, 2.5, math.inf, math.nan, -math.inf])
    values = data.draw(st.lists(st.lists(levels, min_size=w, max_size=w), min_size=h, max_size=h))
    dm = hand_map(values, (0, 0))
    half = [(i * 0.3125, j * 0.3125) for j in range(-4, 2 * h + 5) for i in range(-4, 2 * w + 5)]
    anywhere = [(data.draw(st.floats(-1.25, (w + 2) * 0.625)),
                 data.draw(st.floats(-1.25, (h + 2) * 0.625))) for _ in range(10)]
    for x, y in half + anywhere:
        assert dm.nearest_reachable_cell(x, y) == nearest_reachable_cell_reference(dm, x, y)


# ---------------------------------------------------------------- waypose

def straight_east_path(length=80.0, step=0.625):
    n = int(length / step)
    pts = np.column_stack([np.arange(n + 1) * step, np.zeros(n + 1)])
    return AStarPath(points=pts, cumulative_s=np.arange(n + 1) * step)


def test_routes_compare_by_identity():
    """Two routes with equal values are different routes: `==`, `!=` and
    `in` compare them by identity, without reading their arrays."""
    a, b = (AStarPath(np.zeros((3, 2)), np.zeros(3)) for _ in range(2))
    assert a == a and a != b and not a == b
    assert a in (None, a) and b not in (None, a)
    assert len({a, b}) == 2


def test_waypose_at_55m_east():
    pose = waypose_at(straight_east_path(), 55.0)
    assert pose.x == pytest.approx(55.0)
    assert pose.y == pytest.approx(0.0)
    assert pose.yaw == pytest.approx(0.0)


def test_waypose_clamps_to_end():
    pose = waypose_at(straight_east_path(length=10.0), 55.0)
    assert pose.x == pytest.approx(10.0)
    assert pose.yaw == pytest.approx(0.0)


def test_waypose_just_past_corner_uses_second_leg():
    pts = np.array([[0.0, 0.0], [5.0, 0.0], [5.0, 5.0]])
    path = AStarPath(points=pts, cumulative_s=np.array([0.0, 5.0, 10.0]))
    pose = waypose_at(path, 5.01)
    assert pose.yaw == pytest.approx(math.pi / 2)
    pose_before = waypose_at(path, 4.99)
    assert pose_before.yaw == pytest.approx(0.0)


def test_waypose_single_point_raises():
    path = AStarPath(points=np.array([[1.0, 2.0]]), cumulative_s=np.array([0.0]))
    with pytest.raises(ValueError, match="path too short"):
        waypose_at(path, 5.0)


# -------------------------------------------------------------- divergence

def offset_path(lateral, from_s=0.0, length=80.0, step=0.625):
    s = np.arange(0.0, length + step / 2, step)
    y = np.where(s >= from_s, lateral, 0.0)
    pts = np.column_stack([s, y])
    cum = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(pts, axis=0).T))])
    return AStarPath(points=pts, cumulative_s=cum)


def forked_path(fork_s, leg=15.0, step=0.625):
    """Straight east until fork_s, then straight north for `leg` meters."""
    s = np.arange(0.0, fork_s + step / 2, step)
    east = np.column_stack([s, np.zeros_like(s)])
    t = np.arange(step, leg + step / 2, step)
    north = np.column_stack([np.full_like(t, fork_s), t])
    pts = np.vstack([east, north])
    cum = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(pts, axis=0).T))])
    return AStarPath(points=pts, cumulative_s=cum)


def test_identical_paths_never_diverge():
    a = straight_east_path()
    assert detect_divergence(a, a, 5.0) is None


def test_small_lateral_offset_below_threshold():
    assert detect_divergence(straight_east_path(), offset_path(2.0), 5.0) is None


def test_detour_location_matches_dense_scan():
    """The reported arc length agrees with an independent dense distance scan."""
    prev = straight_east_path()
    curr = forked_path(30.0)
    s_div = detect_divergence(prev, curr, 5.0)
    assert s_div is not None

    fine = np.arange(0.0, min(prev.length, curr.length), 0.05)
    def at(path, sv):
        return np.column_stack([np.interp(sv, path.cumulative_s, path.points[:, 0]),
                                np.interp(sv, path.cumulative_s, path.points[:, 1])])
    d = np.hypot(*(at(prev, fine) - at(curr, fine)).T)
    s_expected = fine[np.nonzero(d > 5.0)[0][0]]
    assert s_div >= 30.0 - 1e-9               # never before the geometric fork
    assert abs(s_div - s_expected) <= 0.625   # within one resample step


def test_threshold_monotonicity(rng):
    prev = straight_east_path()
    curr = offset_path(7.5, from_s=40.0)
    thresholds = [7.0, 5.0, 3.0, 1.0]
    hits = [detect_divergence(prev, curr, t) for t in thresholds]
    fired = [h is not None for h in hits]
    # once it fires at some threshold it fires at every smaller one
    assert fired == sorted(fired)
    fired_s = [s for s in hits if s is not None]
    assert all(a >= b - 1e-9 for a, b in zip(fired_s, fired_s[1:]))


# ------------------------------------------------------ 2D admissibility

def test_cost_to_go_lower_bounds_independent_search(rng):
    """h_d is optimal for its own grid: any other collision-free 8-connected
    route found independently is at least as long."""
    for _ in range(15):
        g = empty_grid(20, 20)
        for _ in range(6):
            g.set_box(rng.uniform(2, 16), rng.uniform(2, 16),
                      rng.uniform(2, 16) + 1.5, rng.uniform(2, 16) + 1.5, OCCUPIED)
        try:
            dm = build_distance_map(g, Pose2D(17.0, 17.0, 0.0), CFG)
        except GoalBlockedError:
            continue
        expect = dijkstra_cost_to_go(dm.blocked, (dm.goal_cell[1], dm.goal_cell[0]), 0.625)
        assert np.allclose(dm.values, expect, atol=1e-9, equal_nan=True)
