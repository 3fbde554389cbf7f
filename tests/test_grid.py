from __future__ import annotations

import math
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

import hybridplan.grid as grid_module
from hybridplan.geometry import Pose2D
from hybridplan.grid import (FREE, OCCUPIED, UNKNOWN, OccupancyGrid, Raster,
                             distance_transform, load_map, raytrace_reveal, voronoi_field)
from hybridplan.heuristic import GoalBlockedError, build_distance_map
from hybridplan.planner import PlannerConfig, field_cap
from hybridplan.vehicle import (CollisionChecker, DiskSet, VehicleSpec, cell_pad,
                                checker_thresholds)

from conftest import (bordered_grid, bundled, clear_test, counted_writes, paint_disk,
                      traced_peak)
from oracles import (_field_at, brute_distance_transform, build_distance_map_reference,
                     distance_transform_reference, downsample_blocked_reference, flat_mask,
                     load_map_reference, raytrace_reveal_reference, saturated,
                     voronoi_field_reference, window_add_reference)


# ---------------------------------------------------------------- map format

DATA_DIR = Path(grid_module.__file__).parent / "data"


def test_map_round_trip(tmp_path):
    """Every cell character, read into its cell state."""
    p = tmp_path / "m.map"
    p.write_text("7 5 0.25\n"
                 "......?\n"
                 ".......\n"
                 "...#...\n"
                 ".......\n"
                 "#......\n")
    loaded = load_map(p)
    expect = np.full((5, 7), FREE, dtype=np.uint8)
    expect[0, 0] = OCCUPIED
    expect[4, 6] = UNKNOWN
    expect[2, 3] = OCCUPIED
    assert loaded.resolution == 0.25
    assert np.array_equal(loaded.cells, expect)


def test_map_format_is_row0_top(tmp_path):
    p = tmp_path / "m.map"
    p.write_text("3 2 0.5\n#..\n...\n")   # row 0 of the file is the maximum-y row
    loaded = load_map(p)
    assert loaded.cells.shape == (2, 3)
    assert loaded.cells[1, 0] == OCCUPIED    # max-y row, first column
    assert np.count_nonzero(loaded.cells == OCCUPIED) == 1


@pytest.mark.parametrize("content", [
    "",
    "3 2\n...\n...\n",
    "3 2 0.5\n..\n...\n",
    "3 2 0.5\n...\nX..\n",
    "3 2 0.5\n...\n",
])
def test_map_rejects_malformed(tmp_path, content):
    p = tmp_path / "bad.map"
    p.write_text(content)
    with pytest.raises(ValueError):
        load_map(p)


def _load_outcome(load, path):
    """The loaded cells, their dtype and resolution, or the ValueError's text."""
    try:
        g = load(path)
    except ValueError as exc:
        return str(exc)
    return g.cells.dtype, g.cells.shape, g.cells.tobytes(), g.resolution


@st.composite
def map_files(draw) -> bytes:
    """A map file: all three cell characters, with each defect below or none."""
    w, h = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    rows = [draw(st.text("?.#", min_size=w, max_size=w)) for _ in range(h)]
    for _ in range(draw(st.integers(0, 3))):    # bad characters at random rows and columns
        r, c = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        bad = draw(st.characters(codec="ascii", exclude_characters="?.#"))
        rows[r] = rows[r][:c] + bad + rows[r][c + 1:]
    if draw(st.booleans()):        # a short or long row, before or after it
        r = draw(st.integers(0, h - 1))
        n = draw(st.integers(0, 2 * w + 1).filter(lambda n: n != w))
        rows[r] = (rows[r] + "#" * (w + 1))[:n]
    # either defect below hides every row's, so each is in one file of four
    if draw(st.integers(0, 3)) == 3:    # too few or too many rows
        n = draw(st.integers(0, h + 2).filter(lambda n: n != h))
        rows = (rows + ["." * w] * 2)[:n]
    resolution = draw(st.sampled_from(["0.5", "0.15625", "2", "nan"]))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (eol.join([f"{w} {h} {resolution}"] + rows)
            + draw(st.sampled_from(["", eol]))).encode("ascii")
    if draw(st.integers(0, 3)) == 3:    # a non-ASCII byte
        i = draw(st.integers(0, len(data)))
        data = data[:i] + bytes([draw(st.integers(0x80, 0xff))]) + data[i:]
    return data


@pytest.fixture(scope="module")
def map_path(tmp_path_factory):
    return tmp_path_factory.mktemp("maps") / "m.map"


@settings(max_examples=300, deadline=None)
@given(data=map_files())
def test_load_map_matches_reference(map_path, data):
    """The per-row byte table loads the same cells as the per-character dict
    lookup it replaced, or raises the same first error in file order."""
    map_path.write_bytes(data)
    assert _load_outcome(load_map, map_path) == _load_outcome(load_map_reference, map_path)


@pytest.mark.parametrize("path", sorted(DATA_DIR.glob("*.map")), ids=lambda p: p.name)
def test_bundled_maps_load_as_reference(path):
    assert _load_outcome(load_map, path) == _load_outcome(load_map_reference, path)


# -------------------------------------------------------------- belief state

def test_cells_are_read_only():
    g = OccupancyGrid.filled(4, 4, 0.5, FREE)
    field = g.distance_field()
    with pytest.raises(ValueError):
        g.cells[0, 0] = OCCUPIED
    with pytest.raises(AttributeError):
        g.cells = np.full((4, 4), OCCUPIED, dtype=np.uint8)
    with pytest.raises(IndexError):
        g.set_cells((9, 9), OCCUPIED)              # a failed write stays read-only
    with pytest.raises(ValueError):
        g.cells[0, 0] = OCCUPIED
    assert g.distance_field() is field              # nor starts a generation
    assert np.all(g.cells == FREE)


def test_constructor_copies_cells():
    cells = np.full((6, 6), FREE, dtype=np.uint8)
    g = OccupancyGrid(0.5, cells)
    cells[2, 2] = OCCUPIED
    assert np.all(g.cells == FREE)
    assert np.all(np.isinf(g.distance_field().values))


def test_set_box_rebuilds_distance_field():
    g = OccupancyGrid.filled(20, 20, 0.5, FREE)
    g.set_cells((0, 0), OCCUPIED)
    before = g.distance_field()
    kept = before.values.copy()
    assert g.distance_field() is before          # memoized while unchanged
    g.set_box(6.0, 6.0, 7.0, 7.0, OCCUPIED)
    after = g.distance_field()
    assert before.values[13, 13] > 0.0 and after.values[13, 13] == 0.0
    assert np.array_equal(after.values, distance_transform_reference(g))
    assert np.array_equal(before.values, kept)   # a field read earlier keeps its values
    for field in (before, after):
        with pytest.raises(ValueError):
            field.values[13, 13] = 1.0
    fresh = OccupancyGrid(g.resolution, g.cells, g.cap)
    assert fresh.derived(("distance_field", math.inf), lambda previous, added: previous) is None


def test_failed_build_keeps_the_previous_value():
    """A build that raises leaves the previous value for the next call."""
    g = OccupancyGrid.filled(4, 4, 0.5, FREE)
    g.derived("k", lambda previous, added: "first")
    g.set_cells((0, 0), OCCUPIED)

    def failing(previous, added):
        raise RuntimeError("build failed")

    with pytest.raises(RuntimeError):
        g.derived("k", failing)
    assert g.derived("k", lambda previous, added: previous) == "first"


def test_reveal_bumps_version_only_when_cells_change():
    truth = bordered_grid(10, 10, res=0.25)
    truth.set_box(6.0, 4.0, 7.0, 6.0, OCCUPIED)
    belief = OccupancyGrid.filled(truth.width_cells, truth.height_cells, 0.25, UNKNOWN)
    before = belief.distance_field()
    with counted_writes() as writes:
        raytrace_reveal(truth, belief, Pose2D(5, 5, 0), 8.0, 720)
        assert writes[belief] == 1
        after = belief.distance_field()
        assert np.array_equal(after.values, distance_transform_reference(belief))
        assert not np.array_equal(after.values, before.values)
        raytrace_reveal(truth, belief, Pose2D(5, 5, 0), 8.0, 720)
        assert writes[belief] == 1
    assert belief.distance_field() is after      # the memo kept its generation


# ------------------------------------------------------- distance transform

def test_distance_transform_zero_at_obstacle():
    g = OccupancyGrid.filled(9, 9, 0.25, FREE)
    g.set_cells((4, 4), OCCUPIED)
    d = distance_transform(g)
    assert d[4, 4] == 0.0


def test_distance_transform_axis_aligned():
    g = OccupancyGrid.filled(9, 9, 0.25, FREE)
    g.set_cells((4, 4), OCCUPIED)
    d = distance_transform(g)
    assert d[4, 8] == pytest.approx(1.0)


def test_distance_transform_no_obstacles_infinite():
    g = OccupancyGrid.filled(5, 5, 0.1, FREE)
    assert np.all(np.isinf(distance_transform(g)))


def test_distance_transform_random_grid_matches_brute_force(rng):
    cells = np.where(rng.random((32, 32)) < 0.07, OCCUPIED, FREE).astype(np.uint8)
    g = OccupancyGrid(0.2, cells)
    got = distance_transform(g)
    expect = brute_distance_transform(g.cells == OCCUPIED, 0.2)
    assert np.allclose(got, expect, atol=1e-9)
    assert np.array_equal(got, distance_transform_reference(g))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_distance_transform_property_small_grids(seed):
    r = np.random.default_rng(seed)
    h, w = int(r.integers(2, 24)), int(r.integers(2, 24))
    cells = np.where(r.random((h, w)) < 0.15, OCCUPIED, FREE).astype(np.uint8)
    g = OccupancyGrid(0.5, cells)
    got = distance_transform(g)
    expect = brute_distance_transform(cells == OCCUPIED, 0.5)
    assert np.allclose(got, expect, atol=1e-9, equal_nan=False)
    assert np.array_equal(got, distance_transform_reference(g))


def test_distance_transform_unknown_flag():
    g = OccupancyGrid.filled(5, 5, 1.0, FREE)
    g.set_cells((2, 2), UNKNOWN)
    assert np.all(np.isinf(distance_transform(g)))   # unknown counts as free


EDITS = ("add_box", "add_disk", "add_cells", "remove_box", "remove_disk", "mixed",
         "unknown_to_free", "noop", "clear")


def _apply_edit(g, edit, r):
    h, w = g.cells.shape
    res = g.resolution
    x0, y0 = r.uniform(-1.0, w + 1.0) * res, r.uniform(-1.0, h + 1.0) * res
    x1, y1 = x0 + r.uniform(0.0, 0.4 * w) * res, y0 + r.uniform(0.0, 0.4 * h) * res
    radius = r.uniform(0.0, 0.3 * max(w, h)) * res
    if edit == "add_box":
        g.set_box(x0, y0, x1, y1, OCCUPIED)
    elif edit == "add_disk":
        paint_disk(g, x0, y0, radius, OCCUPIED)
    elif edit == "add_cells":
        g.set_cells(r.random((h, w)) < 0.03, OCCUPIED)
    elif edit == "remove_box":
        g.set_box(x0, y0, x1, y1, FREE)
    elif edit == "remove_disk":
        paint_disk(g, x0, y0, radius, r.choice([FREE, UNKNOWN]))
    elif edit == "mixed":
        mask = r.random((h, w)) < 0.1
        g.set_cells(mask, r.integers(0, 3, int(mask.sum())).astype(np.uint8))
    elif edit == "unknown_to_free":
        g.set_cells((g.cells == UNKNOWN) & (r.random((h, w)) < 0.5), FREE)
    elif edit == "noop":
        g.set_cells(slice(None), g.cells.copy())
    else:
        g.set_cells(g.cells == OCCUPIED, FREE)


def _assert_field_is_full_rebuild(g):
    got = g.distance_field().values
    assert np.array_equal(got, saturated(distance_transform_reference(g), g.cap))
    if g.cells.size <= 400:
        exact = brute_distance_transform(g.cells == OCCUPIED, g.resolution)
        assert np.array_equal(got, saturated(exact, g.cap))


def _route_map_or_error(build, g, goal, config):
    try:
        return build(g, goal, config)
    except GoalBlockedError as exc:
        return str(exc)


def _checker_or_error(g, disks, reach=0.0):
    try:
        return CollisionChecker(g, disks, reach)
    except ValueError as exc:
        return str(exc)


def _assert_readers_agree(g, goals, config, r):
    """The field of `g`, saturated at its cap, is bit-equal to the saturated
    reference, and every reader of `g` whose threshold is at most the cap
    decides on it as on the exact field of an uncapped copy: the
    comparisons with each threshold up to the cap, the disk mask,
    `rotation_blocked` and the clear test of `expansion_blocked` (`clear_test`)
    of two disk sets (reach 0 and the largest the cap allows) and the route's
    blocked grid; a reader whose threshold is above the cap raises ValueError."""
    cap, res = g.cap, g.resolution
    full = OccupancyGrid(res, g.cells)
    exact = full.distance_field().values
    sat = g.distance_field().values
    assert np.array_equal(sat, saturated(distance_transform_reference(g), cap))
    values = np.unique(exact[exact <= cap])
    for t in [cap, *r.choice(values, min(values.size, 6), replace=False).tolist()]:
        for compare in (np.less, np.less_equal, np.greater_equal):
            assert np.array_equal(compare(sat, t), compare(exact, t))
    h, w = g.cells.shape
    points = np.column_stack((r.uniform(-1.0, w + 1.0, 48) * res,
                              r.uniform(-1.0, h + 1.0, 48) * res)).tolist()
    for disks in (VehicleSpec().disks, DiskSet((0.0,), res / 2)):
        clear_base = checker_thresholds(disks, res, 0.0)[2][1]
        for reach in {0.0, max(cap - clear_base, 0.0)}:
            above = [name for name, t in checker_thresholds(disks, res, reach) if t > cap]
            if above:
                with pytest.raises(ValueError, match=above[0]):
                    CollisionChecker(g, disks, reach)
                continue
            capped = CollisionChecker(g, disks, reach)
            uncapped = CollisionChecker(full, disks, reach)
            assert np.array_equal(capped.blocked, exact < uncapped.threshold)
            for x, y in points:
                assert capped.rotation_blocked(x, y) == uncapped.rotation_blocked(x, y)
                assert clear_test(capped, x, y) == clear_test(uncapped, x, y)
    for goal in goals:
        if config.inflation_radius > cap:
            with pytest.raises(ValueError, match="inflation_radius"):
                build_distance_map(g, goal, config)
            continue
        got = _route_map_or_error(build_distance_map, g, goal, config)
        expect = _route_map_or_error(build_distance_map, full, goal, config)
        if isinstance(expect, str):
            assert got == expect
        else:
            assert np.array_equal(got.blocked, expect.blocked)
            assert np.array_equal(got.values, expect.values)


def _assert_route_maps_are_full_rebuild(g, goals, config):
    """The memoized route maps of `g` equal the references built from
    scratch: values, blocked grid, successor table.  Below the route's
    radius the grid's cap admits no route map (`_assert_readers_agree`)."""
    if config.inflation_radius > g.cap:
        return
    for goal in goals:
        got = _route_map_or_error(build_distance_map, g, goal, config)
        expect = _route_map_or_error(build_distance_map_reference, g, goal, config)
        if isinstance(expect, str):
            assert got == expect
            continue
        assert np.array_equal(got.values, expect.values)
        assert np.array_equal(got.blocked, expect.blocked)
        assert np.array_equal(np.asarray(got.successor), np.asarray(expect.successor))
        assert got.goal_cell == expect.goal_cell


def _field_cap(kind, nudge, res, config):
    """A cap at a reader's threshold, the planner's cap or a field value
    (sqrt(5) cells), moved by `nudge` ulps; +inf for "inf".  A cap at or
    below 0 becomes the least positive float, which saturates the field
    alike: every nonzero distance is at least the resolution."""
    if kind == "inf":
        return math.inf
    (_, disk), (_, swept), _ = checker_thresholds(VehicleSpec().disks, res, 0.0)
    cap = {"inflation": config.inflation_radius, "disk": disk, "swept": swept,
           "planner": field_cap(VehicleSpec(), config, res), "cell": math.sqrt(5.0) * res}[kind]
    cap = float(np.nextafter(cap, nudge * math.inf)) if nudge else cap
    return max(cap, float(np.nextafter(0.0, 1.0)))


def _assert_fields_are_full_rebuild(g, goals, config, r=None):
    """The memoized distance field and route maps of `g` equal the
    references built from scratch, and its disk mask equals that of a
    fresh copy; with a finite cap, the saturated field and its readers
    agree with those of an uncapped copy too (`_assert_readers_agree`)."""
    if g.cap < math.inf:
        _assert_readers_agree(g, goals, config, r)
    _assert_field_is_full_rebuild(g)
    _assert_route_maps_are_full_rebuild(g, goals, config)
    disks = VehicleSpec().disks
    fresh = OccupancyGrid(g.resolution, g.cells, g.cap)
    got, expect = _checker_or_error(g, disks), _checker_or_error(fresh, disks)
    if isinstance(expect, str):
        assert got == expect
    else:
        assert np.array_equal(got.blocked, expect.blocked)


@contextmanager
def recorded_builds(builds, writes):
    """Inside, every build run through `OccupancyGrid.derived` first appends
    (grid, its count in `writes`, key kind, previous is None, added) to
    `builds`."""
    derived = OccupancyGrid.derived

    def recording(self, key, build):
        def recorded(previous, added):
            builds.append((self, writes[self], key[0], previous is None, added))
            return build(previous, added)
        return derived(self, key, recorded)

    OccupancyGrid.derived = recording
    try:
        yield
    finally:
        OccupancyGrid.derived = derived


def _assert_builds_only_add_obstacles(g, builds, occupied):
    """Every build is handed `added` exactly when it is handed a previous
    value, and `added` is the cells that the one write between them made
    occupied (`occupied` maps each write count of `g` to its occupied mask).
    After a write that freed an occupied cell, the field, the disk mask and
    the route map builds of `g` all start from empty; each is read there on
    an exact field, and at a finite cap the readers above it build none."""
    for grid, written, _, fresh, added in builds:
        assert (added is None) == fresh
        if added is not None:
            assert grid is g
            made = occupied[written] & ~occupied[written - 1]
            assert np.array_equal(np.sort(added), np.flatnonzero(made))
    for written in range(1, len(occupied)):
        if (occupied[written - 1] & ~occupied[written]).any():
            after = [(kind, fresh) for grid, n, kind, fresh, _ in builds
                     if grid is g and n == written]
            assert all(fresh for _, fresh in after)
            kinds = {kind for kind, _ in after}
            if after and g.cap == math.inf:     # read before the next write
                assert kinds == {"distance_field", "within", "route_map"}
            elif after:
                assert "distance_field" in kinds and kinds <= {"distance_field", "within",
                                                               "route_map"}


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40),
       st.sampled_from([0.1, 0.15625, 0.25, 0.5, 1.0]),
       st.sampled_from([0.0, 0.0, 0.02, 0.2]),
       st.lists(st.tuples(st.sampled_from(EDITS), st.booleans()), min_size=1, max_size=8),
       st.integers(1, 3), st.sampled_from([0.0, 0.3, 1.0]),
       st.sampled_from(["inf", "inflation", "disk", "swept", "planner", "cell"]),
       st.sampled_from([-1, 0, 1]), st.integers(0, 2**32 - 1))
def test_incremental_distance_field_matches_full(w, h, res, fill, steps, factor, inflation,
                                                 cap_kind, nudge, seed):
    """Random writes, each followed by a read or not (a skipped read makes
    the next rebuild follow two writes): after every read the distance
    field and the route maps of two goals are bit-equal to the references
    built from scratch, and the disk mask to that of a fresh copy, from a
    start with or without obstacles.  The grid's field is exact or
    saturated at a cap near a reader's threshold; a saturated one equals
    the saturated reference after every read, and its readers decide as on
    the exact field.  Every build is handed only the obstacles added since
    its previous value (`_assert_builds_only_add_obstacles`)."""
    r = np.random.default_rng(seed)
    cells = np.where(r.random((h, w)) < 0.3, UNKNOWN, FREE)
    cells[r.random((h, w)) < fill] = OCCUPIED
    config = PlannerConfig(xy_resolution=factor * res, inflation_radius=inflation)
    g = OccupancyGrid(res, cells, _field_cap(cap_kind, nudge, res, config))
    goals = [Pose2D(r.uniform(0.0, w * res), r.uniform(0.0, h * res), 0.0) for _ in range(2)]
    builds, occupied = [], [g.cells == OCCUPIED]
    with counted_writes() as writes, recorded_builds(builds, writes):
        _assert_fields_are_full_rebuild(g, goals, config, r)
        for edit, read in steps:
            _apply_edit(g, edit, r)
            occupied[writes[g]:] = [g.cells == OCCUPIED]    # at most one write per edit
            assert len(occupied) == writes[g] + 1
            if read:
                _assert_fields_are_full_rebuild(g, goals, config, r)
        _assert_fields_are_full_rebuild(g, goals, config, r)
    _assert_builds_only_add_obstacles(g, builds, occupied)


def _assert_logged_fields_match(g, goals, config):
    """The field of `g` (saturated at its cap), its disk mask and its route
    maps (values, blocked grid, successor table), each updated from the
    generation before when it was read there, equal the references built
    from scratch."""
    exact = distance_transform_reference(g)
    assert np.array_equal(g.distance_field().values, saturated(exact, g.cap))
    checker = CollisionChecker(g, VehicleSpec().disks)
    assert np.array_equal(checker.blocked, exact < checker.threshold)
    _assert_route_maps_are_full_rebuild(g, goals, config)


REVEAL_STEPS = ("reveal", "reveal", "reveal", "set_box", "free")


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(REVEAL_STEPS), st.booleans()), min_size=1, max_size=10),
       st.sampled_from([0.15625, 0.25]), st.sampled_from(["planner", "swept", "inf"]),
       st.integers(0, 2**32 - 1))
def test_incremental_distance_field_matches_full_over_reveals(steps, res, cap_kind, seed):
    """Logged reveals interleaved with `set_box` writes, writes that free an
    occupied cell and skipped reads (the next rebuild then follows two
    writes, from empty): after every read the field, the disk mask and the
    route maps of two goals equal the references built from scratch."""
    r = np.random.default_rng(seed)
    truth = bordered_grid(24, 12, res=res)
    for _ in range(10):
        x, y = r.uniform(1.0, 20.0), r.uniform(1.0, 9.0)
        truth.set_box(x, y, x + r.uniform(0.3, 2.5), y + r.uniform(0.3, 2.5), OCCUPIED)
    config = PlannerConfig(xy_resolution=2 * res, inflation_radius=1.0)
    belief = OccupancyGrid(res, np.full_like(truth.cells, UNKNOWN),
                           _field_cap(cap_kind, 0, res, config))
    goals = [Pose2D(r.uniform(1.0, 23.0), r.uniform(1.0, 11.0), 0.0) for _ in range(2)]
    _assert_logged_fields_match(belief, goals, config)
    for step, read in steps:
        if step == "reveal":
            pose = Pose2D(r.uniform(1.0, 23.0), r.uniform(1.0, 11.0), 0.0)
            raytrace_reveal(truth, belief, pose, r.uniform(2.0, 8.0), 360)
        elif step == "set_box":
            x, y = r.uniform(0.0, 22.0), r.uniform(0.0, 10.0)
            belief.set_box(x, y, x + r.uniform(0.2, 3.0), y + r.uniform(0.2, 3.0),
                           r.choice([OCCUPIED, FREE, UNKNOWN]))
        else:
            occupied = np.flatnonzero(belief.cells == OCCUPIED)
            if occupied.size:
                belief.set_cells(np.unravel_index(r.choice(occupied), belief.cells.shape),
                                 r.choice([FREE, UNKNOWN]))
        if read:
            _assert_logged_fields_match(belief, goals, config)
    _assert_logged_fields_match(belief, goals, config)
    exact = brute_distance_transform(belief.cells == OCCUPIED, res)
    assert np.array_equal(belief.distance_field().values, saturated(exact, belief.cap))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.sampled_from([0.15625, 0.25, 1.0]),
       st.lists(st.tuples(st.sampled_from(EDITS), st.booleans()), min_size=1, max_size=8),
       st.lists(st.tuples(st.integers(0, 60), st.sampled_from([-1, 0, 0, 1]), st.integers(1, 4)),
                min_size=1, max_size=3),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_within_matches_the_pooled_reference(w, h, res, steps, views, capped, seed):
    """`within(t, f)`, read after random `set_box` and `set_cells` writes
    (that add, free or keep cells), each read or skipped, equals the
    reference pool of the saturated field's cells at most t, bit for bit.
    Each t is an exact field value sqrt(k) * res or one ulp off it, f runs
    from 1 to 4, and the cap is +inf or the largest t."""
    r = np.random.default_rng(seed)
    views = [(float(np.nextafter(math.sqrt(k) * res, nudge * math.inf)) if nudge
              else math.sqrt(k) * res, f) for k, nudge, f in views]
    cap = max(max(t for t, _ in views), float(np.nextafter(0.0, 1.0))) if capped else math.inf
    cells = np.where(r.random((h, w)) < 0.3, UNKNOWN, FREE)
    cells[r.random((h, w)) < 0.05] = OCCUPIED
    g = OccupancyGrid(res, cells, cap)

    def check():
        field = saturated(distance_transform_reference(g), g.cap)
        for t, f in views:
            got = g.within(t, f)
            assert not got.flags.writeable and g.within(t, f) is got
            assert np.array_equal(got, downsample_blocked_reference(field <= t, f))

    check()
    for edit, read in steps:
        _apply_edit(g, edit, r)
        if read:
            check()
    check()


def test_within_refuses_a_threshold_above_the_cap():
    g = OccupancyGrid(0.25, np.full((4, 4), FREE), cap=1.0)
    with pytest.raises(ValueError, match=r"^within compares the obstacle field with 1\.5 m"):
        g.within(1.5)


@pytest.mark.parametrize("updated", [False, True])
def test_disk_mask_is_strict_at_an_exact_field_value(updated):
    """With the disk threshold at a cell's exact field value sqrt(13) * res,
    that cell is not in the disk mask and the cell at sqrt(8) * res is,
    whether the mask is built whole or updated over the write that added
    the obstacle."""
    res, pad = 0.25, cell_pad(0.25)
    threshold = math.sqrt(13.0) * res
    radius = threshold - pad
    while radius + pad != threshold:
        radius = float(np.nextafter(radius, math.inf if radius + pad < threshold else -math.inf))
    disks = DiskSet(centers=(0.0,), radius=radius)
    g = OccupancyGrid.filled(20, 20, res, FREE)
    if updated:
        assert not CollisionChecker(g, disks).blocked.any()
    g.set_cells((10, 10), OCCUPIED)
    checker = CollisionChecker(g, disks)
    assert checker.threshold == threshold == g.distance_field().values[12, 13]
    assert not checker.blocked[12, 13] and checker.blocked[12, 12]
    assert np.array_equal(checker.blocked, g.distance_field().values < threshold)


def test_route_maps_of_one_generation_share_the_blocked_grid():
    """Route maps to two goals on one belief generation read one pooled
    blocked grid, before and after a write that grows it."""
    g = bordered_grid(20.0, 10.0)
    config = PlannerConfig()
    blocked = []
    for wall in (False, True):
        if wall:
            g.set_box(9.5, 1.0, 10.5, 6.0, OCCUPIED)
        first = build_distance_map(g, Pose2D(5.0, 5.0, 0.0), config)
        second = build_distance_map(g, Pose2D(15.0, 5.0, 0.0), config)
        assert first.goal_cell != second.goal_cell and first.blocked is second.blocked
        blocked.append(first.blocked)
    assert (blocked[1] > blocked[0]).any()


@st.composite
def obstacle_additions(draw):
    """A saturated field, the cells added to it (single cells, cells on an
    edge or a corner, far-apart clusters, or a large random set that takes
    the EDT), a resolution and a cap of every kind the incremental-field
    test uses."""
    w, h = draw(st.integers(1, 100)), draw(st.integers(1, 100))
    res = draw(st.sampled_from([0.1, 0.15625, 0.25, 0.5, 1.0]))
    inflation = draw(st.sampled_from([0.0, 0.3, 1.0]))
    config = PlannerConfig(xy_resolution=res, inflation_radius=inflation)
    cap_kind = draw(st.sampled_from(["inf", "inflation", "disk", "swept", "planner", "cell"]))
    cap = _field_cap(cap_kind, draw(st.sampled_from([-1, 0, 1])), res, config)
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    before = r.random((h, w)) < draw(st.sampled_from([0.0, 0.01, 0.1]))
    added = np.zeros((h, w), dtype=bool)
    kind = draw(st.sampled_from(["single", "edge", "corner", "clusters", "large"]))
    if kind == "single":
        added[r.integers(h), r.integers(w)] = True
    elif kind == "edge":
        side = r.integers(4)
        iy = r.integers(h, size=3) if side < 2 else [0, h - 1][side - 2]
        ix = r.integers(w, size=3) if side >= 2 else [0, w - 1][side]
        added[iy, ix] = True
    elif kind == "corner":
        corners = r.permutation(4)[:r.integers(1, 5)]
        rows, cols = np.array([0, 0, h - 1, h - 1]), np.array([0, w - 1, 0, w - 1])
        added[rows[corners], cols[corners]] = True
    elif kind == "clusters":
        for _ in range(r.integers(2, 4)):
            cy, cx = r.integers(h), r.integers(w)
            added[max(cy - 1, 0):cy + 2, max(cx - 1, 0):cx + 2] = True
    else:
        added |= r.random((h, w)) < 0.3
        added[r.integers(h), r.integers(w)] = True
    field = saturated(distance_transform_reference(OccupancyGrid(res, before * OCCUPIED)), cap)
    field.setflags(write=False)
    return field, added, res, cap


@settings(max_examples=300, deadline=None)
@given(obstacle_additions())
def test_add_obstacles_matches_window_reference(case):
    """The field lowered by disc stamps or by the window's EDT is bit-equal
    to the bounding-box EDT update that the stamps replaced."""
    field, added, res, cap = case
    kept = field.copy()
    got = grid_module._add_obstacles(field, np.flatnonzero(added), res, cap)
    assert np.array_equal(got, window_add_reference(field, added, res, cap))
    assert not got.flags.writeable and np.array_equal(field, kept)


def test_add_obstacles_stamps_few_cells_and_runs_the_edt_on_many(monkeypatch):
    """Under the cost rule a lone cell at the planner's cap is stamped, while
    a large addition or an uncapped field runs the window's EDT."""
    edts = []
    edt = grid_module.ndimage.distance_transform_edt
    monkeypatch.setattr(grid_module.ndimage, "distance_transform_edt",
                        lambda *args, **kwargs: edts.append(1) or edt(*args, **kwargs))
    res = 0.15625
    cap = field_cap(VehicleSpec(), PlannerConfig(), res)
    field = np.full((200, 300), np.inf)
    lone = np.array([200 * 150 + 100])
    for added, c, expect in ((lone, cap, 0), (np.arange(0, 60000, 7), cap, 1), (lone, math.inf, 1)):
        n = len(edts)
        got = grid_module._add_obstacles(field, added, res, c)
        assert len(edts) - n == expect
        mask = flat_mask(field.shape, added)
        assert np.array_equal(got, window_add_reference(field, mask, res, c))


@st.composite
def edt_inputs(draw):
    """A boolean grid with at least one False cell, on 1, 63, 64, 65 or 129
    rows (around the edges of `_EDT_ROWS` = 64-row blocks) and one or many
    columns: random, a single False cell, or mostly False."""
    h = draw(st.sampled_from([1, 63, 64, 65, 129]))
    w = draw(st.one_of(st.just(1), st.integers(2, 90)))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from([1.0, 0.95, 0.5, 0.05]))    # of True cells
    free = r.random((h, w)) < share
    free[r.integers(h), r.integers(w)] = False
    return free


@settings(max_examples=200, deadline=None)
@given(edt_inputs())
def test_edt_matches_scipy_bit_for_bit(free):
    """The row-block distances of `_edt`, and its feature transform, are
    scipy's own bytes."""
    want, want_ft = ndimage.distance_transform_edt(free, return_indices=True)
    got, ft = grid_module._edt(free, indices=True)
    assert (got.dtype, got.shape, ft.dtype, ft.shape) == (want.dtype, want.shape,
                                                          want_ft.dtype, want_ft.shape)
    assert got.tobytes() == want.tobytes() and ft.tobytes() == want_ft.tobytes()
    assert grid_module._edt(free).tobytes() == want.tobytes()


def test_fresh_distance_field_peak_memory():
    """A fresh obstacle field on unknown_large's 1024 x 384 truth (3 MB per
    float64 grid) at the planner's cap peaks within 10 MB: it starts from a
    broadcast +inf that is never copied (the bordered map's EDT window is the
    whole grid, so the EDT's array is the field), and its EDT holds one
    feature transform, not scipy's whole-grid distance pass."""
    truth = bundled("unknown_large").truth_map
    cap = field_cap(VehicleSpec(), PlannerConfig(), truth.resolution)
    grid = OccupancyGrid(truth.resolution, truth.cells, cap)
    field, peak = traced_peak(grid.distance_field)
    assert np.array_equal(field.values, saturated(distance_transform_reference(truth), cap))
    assert peak <= 10 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_distance_transform_called_once_per_rebuilt_field(monkeypatch):
    """Every rebuilt field is one module-level `distance_transform` call, also
    when the occupied cells did not change, with the previous field and the
    cells the last write made occupied passed by keyword."""
    calls = []
    full = grid_module.distance_transform

    def counting(grid, *args, **kwargs):
        field = full(grid, *args, **kwargs)
        calls.append((args, kwargs, field))
        return field

    monkeypatch.setattr(grid_module, "distance_transform", counting)
    truth = bordered_grid(20, 12, res=0.25)
    truth.set_box(9.0, 4.0, 11.0, 8.0, OCCUPIED)
    belief = OccupancyGrid.filled(truth.width_cells, truth.height_cells, 0.25, UNKNOWN)
    belief.distance_field()
    rebuilt = []                     # (writes, occupied before, after) per later rebuild
    with counted_writes() as counted:
        for x in (2.0, 2.0, 3.0, 6.0, None, 14.0, 17.0, 17.5):
            written, mask = counted[belief], belief.occupied_mask()
            if x is not None:
                raytrace_reveal(truth, belief, Pose2D(x, 6.0, 0.0), 4.0, 360)
            if x in (3.0, None):         # writes that keep the occupied cells
                belief.set_cells(belief.cells == UNKNOWN, FREE)
            belief.distance_field()
            belief.distance_field()
            if counted[belief] != written:
                rebuilt.append((counted[belief] - written, mask, belief.occupied_mask()))
            assert len(calls) == 1 + len(rebuilt)
    kinds = {(writes, np.array_equal(was, now)) for writes, was, now in rebuilt}
    assert {(1, True), (1, False), (2, True)} <= kinds
    assert calls[0][:2] == ((), {"previous": None, "added": None})
    for (_, _, before), (args, kwargs, field), (writes, was, now) in zip(calls, calls[1:], rebuilt):
        # the field one generation back and the cells the write made
        # occupied, none after two writes; no added cell returns that field
        assert args == () and kwargs["previous"] is (before if writes == 1 else None)
        if writes == 1:
            assert np.array_equal(np.sort(kwargs["added"]), np.flatnonzero(now & ~was))
        else:
            assert kwargs["added"] is None
        assert (field is before) == (writes == 1 and np.array_equal(was, now))


# ------------------------------------------------------------------ raster

@st.composite
def raster_cases(draw):
    """A raster and query points on cell edges, inside cells and off the grid."""
    w, h = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    res = draw(st.sampled_from([0.1, 0.15625, 0.25, 0.625, 1.0]))
    outside = draw(st.sampled_from([-math.inf, math.inf, 1.0]))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-5.0, 5.0, (h, w))
    raster = Raster(values, res, outside)

    def coordinate(n):
        edge = st.integers(-3, n + 3).map(lambda i: i * res)
        anywhere = st.floats(-3.0, n + 3.0).map(lambda f: f * res)
        return st.one_of(edge, anywhere)

    n = draw(st.integers(1, 40))
    xs = np.array(draw(st.lists(coordinate(w), min_size=n, max_size=n)))
    ys = np.array(draw(st.lists(coordinate(h), min_size=n, max_size=n)))
    return raster, xs, ys


@settings(max_examples=300, deadline=None)
@given(raster_cases())
def test_raster_matches_scalar_reference(case):
    """`at` and `flat_cells` read the cell the reference floor picks and
    `outside` off the grid, for any resolution and array shape."""
    raster, xs, ys = case
    expect = np.array([_field_at(raster.values, raster.resolution, x, y, raster.outside)
                       for x, y in zip(xs.tolist(), ys.tolist())])
    assert [raster.at(x, y) for x, y in zip(xs.tolist(), ys.tolist())] == expect.tolist()

    def read(points):
        flat, off = raster.flat_cells(points)
        return np.where(off, raster.outside, raster.values.take(flat, mode="wrap"))

    assert np.array_equal(read(np.array((xs, ys))), expect)
    if xs.size % 2 == 0:
        assert np.array_equal(read(np.array((xs.reshape(2, -1), ys.reshape(2, -1)))), expect)


def test_rasters_compare_by_identity():
    """Rasters and route maps of equal values are distinct objects: `==` and
    `hash` read identity, as for routes and paths, and never the arrays."""
    a, b = (Raster(np.zeros((2, 2)), 1.0, 0.0) for _ in range(2))
    assert a == a and a != b and len({a, b}) == 2
    g = bordered_grid(10, 10)
    maps = [build_distance_map(grid, Pose2D(5, 5, 0), PlannerConfig())
            for grid in (g, OccupancyGrid(g.resolution, g.cells, g.cap))]
    assert np.array_equal(maps[0].values, maps[1].values)
    assert maps[0] != maps[1] and len(set(maps)) == 2


# ------------------------------------------------------------ voronoi field

def test_voronoi_one_inside_obstacles():
    g = bordered_grid(10, 10, res=0.25)
    f = voronoi_field(g)
    assert f.values[g.cells == OCCUPIED].min() == 1.0


def test_voronoi_zero_beyond_cutoff():
    g = OccupancyGrid.filled(200, 200, 0.25, FREE)
    g.set_cells((0, 0), OCCUPIED)
    f = voronoi_field(g)
    assert f.values[150, 150] == 0.0   # far corner, d_O > d_max


def test_voronoi_zero_on_midline_between_walls():
    """Walls 10 m apart: the midline lies 5 m from each, inside the 10 m
    range, so the ridge, not the distance, makes it zero."""
    res = 0.25
    g = OccupancyGrid.filled(41, 41, res, FREE)
    g.set_cells((slice(None), 0), OCCUPIED)
    g.set_cells((slice(None), 40), OCCUPIED)
    f = voronoi_field(g)
    assert f.values[20, 20] == pytest.approx(0.0, abs=1e-12)
    assert f.values[20, 10] > 0.0


def test_voronoi_single_component_formula():
    """With one obstacle component there is no equidistant edge: the ridge
    term is 1 and the field follows the two remaining factors exactly."""
    res = 0.5
    g = OccupancyGrid.filled(40, 8, res, FREE)
    g.set_cells((slice(None), 0), OCCUPIED)
    alpha, d_max = 10.0, 10.0
    f = voronoi_field(g)
    for ix in (1, 5, 10, 19):
        d_o = ix * res
        expect = (alpha / (alpha + d_o)) * ((d_o - d_max) ** 2 / d_max ** 2) \
            if d_o <= d_max else 0.0
        assert f.values[4, ix] == pytest.approx(expect, abs=1e-12)


def test_voronoi_values_in_unit_interval(rng):
    cells = np.where(rng.random((48, 48)) < 0.1, OCCUPIED, FREE).astype(np.uint8)
    f = voronoi_field(OccupancyGrid(0.25, cells))
    assert float(f.values.min()) >= 0.0
    assert float(f.values.max()) <= 1.0


def test_voronoi_no_obstacles_all_zero():
    f = voronoi_field(OccupancyGrid.filled(10, 10, 0.5, FREE))
    assert not f.values.any()


def test_voronoi_monotone_in_distance_at_fixed_ridge_distance():
    res = 0.5
    g = OccupancyGrid.filled(60, 10, res, FREE)
    g.set_cells((slice(None), 0), OCCUPIED)
    vals = voronoi_field(g).values[5, 1:]
    assert np.all(np.diff(vals) <= 1e-12)


@st.composite
def voronoi_grids(draw):
    """A grid whose occupied cells form several components, exactly one, or
    none, with free and unknown cells."""
    w, h = draw(st.integers(1, 80)), draw(st.integers(1, 80))
    res = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0]))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = np.where(r.random((h, w)) < 0.2, UNKNOWN, FREE).astype(np.uint8)
    kind = draw(st.sampled_from(["several", "one", "none"]))
    if kind == "several":
        cells[r.random((h, w)) < draw(st.sampled_from([0.01, 0.05, 0.3]))] = OCCUPIED
    elif kind == "one":
        y, x = r.integers(h), r.integers(w)
        cells[y:y + r.integers(1, 10), x:x + r.integers(1, 10)] = OCCUPIED
    return OccupancyGrid(res, cells)


def _assert_voronoi_matches_reference(g):
    got, want = voronoi_field(g), voronoi_field_reference(g)
    assert (got.values.dtype, got.values.shape) == (want.values.dtype, want.values.shape)
    assert got.values.tobytes() == want.values.tobytes()
    assert (got.resolution, got.outside) == (want.resolution, want.outside)


@settings(max_examples=200, deadline=None)
@given(voronoi_grids())
def test_voronoi_matches_reference(g):
    """The row-block Voronoi field is the whole-grid build's bytes."""
    _assert_voronoi_matches_reference(g)


def test_voronoi_matches_reference_on_unknown_large():
    _assert_voronoi_matches_reference(bundled("unknown_large").truth_map)


def test_voronoi_peak_memory():
    """On unknown_large's 1024 x 384 truth the Voronoi field peaks within
    14 MB, about four float64 grids; the whole-grid build took 25 MB."""
    truth = bundled("unknown_large").truth_map
    _, peak = traced_peak(lambda: voronoi_field(truth))
    assert peak <= 14 * 2**20, f"peak {peak / 2**20:.1f} MB"


# --------------------------------------------------------------- raytracing

def test_reveal_everything_on_small_empty_map():
    res = 0.25
    truth = OccupancyGrid.filled(41, 41, res, FREE)
    belief = OccupancyGrid.filled(41, 41, res, UNKNOWN)
    center = Pose2D(41 * res / 2, 41 * res / 2, 0.0)
    revealed = raytrace_reveal(truth, belief, center, sensor_range=20.0, n_rays=2880)
    assert revealed == 41 * 41
    assert np.all(belief.cells == FREE)


def test_wall_occludes_far_region():
    res = 0.25
    truth = OccupancyGrid.filled(80, 40, res, FREE)
    truth.set_box(10.0, 0.0, 10.5, 10.0, OCCUPIED)  # full-height wall
    belief = OccupancyGrid.filled(80, 40, res, UNKNOWN)
    raytrace_reveal(truth, belief, Pose2D(5.0, 5.0, 0.0), 30.0, 1440)
    # cells behind the wall stay unknown
    behind = belief.cells[:, int(12.0 / res):]
    assert np.all(behind == UNKNOWN)
    # the wall face is seen as occupied
    wall_col = int(10.1 / res)
    assert (belief.cells[:, wall_col] == OCCUPIED).any()


def test_reveal_idempotent():
    truth = bordered_grid(10, 10, res=0.25)
    belief = OccupancyGrid.filled(truth.width_cells, truth.height_cells, 0.25, UNKNOWN)
    pose = Pose2D(5, 5, 0)
    first = raytrace_reveal(truth, belief, pose, 8.0, 720)
    assert first > 0
    assert raytrace_reveal(truth, belief, pose, 8.0, 720) == 0


def test_sensor_outside_grid_is_noop():
    truth = bordered_grid(10, 10, res=0.25)
    belief = OccupancyGrid.filled(truth.width_cells, truth.height_cells, 0.25, UNKNOWN)
    assert raytrace_reveal(truth, belief, Pose2D(-5, 5, 0), 8.0, 720) == 0
    assert np.all(belief.cells == UNKNOWN)


def test_belief_sound_and_monotone(rng):
    truth = bordered_grid(20, 12, res=0.25)
    for _ in range(6):
        truth.set_box(rng.uniform(2, 16), rng.uniform(2, 8),
                      rng.uniform(2, 16) + 1.5, rng.uniform(2, 8) + 1.5, OCCUPIED)
    belief = OccupancyGrid.filled(truth.width_cells, truth.height_cells, 0.25, UNKNOWN)
    known_before = 0
    for i in range(8):
        pose = Pose2D(2.0 + i * 2.0, 6.0, 0.0)
        raytrace_reveal(truth, belief, pose, 7.0, 720)
        known = belief.cells != UNKNOWN
        assert known.sum() >= known_before      # knowledge grows monotonically
        known_before = known.sum()
        assert np.array_equal(belief.cells[known], truth.cells[known])


@pytest.mark.parametrize("shape, sensor_range, n_rays, match", [
    ((41, 40), 8.0, 720, "share shape and resolution"),
    (None, 0.0, 720, "sensor_range must be finite and positive"),
    (None, -1.0, 720, "sensor_range must be finite and positive"),
    (None, math.inf, 720, "sensor_range must be finite and positive"),
    (None, math.nan, 720, "sensor_range must be finite and positive"),
    (None, 8.0, 7, "n_rays must be at least 8"),
    (None, 8.0, 360.0, "n_rays must be an integer, got 360.0"),
    (None, 8.0, "720", "n_rays must be an integer, got '720'"),
])
def test_reveal_names_bad_input(shape, sensor_range, n_rays, match):
    """Each input error is a ValueError that names its input, and writes nothing."""
    truth = bordered_grid(10, 10, res=0.25)
    h, w = shape or truth.cells.shape
    belief = OccupancyGrid.filled(w, h, 0.25, UNKNOWN)
    with counted_writes() as writes, pytest.raises(ValueError, match=match):
        raytrace_reveal(truth, belief, Pose2D(5, 5, 0), sensor_range, n_rays)
    assert not writes and np.all(belief.cells == UNKNOWN)


def _assert_reveal_matches_reference(truth, belief, pose, sensor_range, n_rays):
    expect = OccupancyGrid(belief.resolution, belief.cells, belief.cap)
    with counted_writes() as writes:
        got = raytrace_reveal(truth, belief, pose, sensor_range, n_rays)
        assert got == raytrace_reveal_reference(truth, expect, pose, sensor_range, n_rays)
    assert np.array_equal(belief.cells, expect.cells)
    assert writes[belief] == writes[expect]


def test_reveal_tie_steps_in_x():
    """From a cell corner, the rays at 225 and 270 degrees meet an x and a y
    boundary at t = 0 and step in x first, into the occupied cell that
    stops them, so the diagonal below-left stays unseen."""
    truth = OccupancyGrid.filled(12, 12, 0.5, FREE)
    truth.set_cells((6, 5), OCCUPIED)
    belief = OccupancyGrid.filled(12, 12, 0.5, UNKNOWN)
    _assert_reveal_matches_reference(truth, belief, Pose2D(3.0, 3.0, 0.0), 10.0, 8)
    assert belief.cells[6, 5] == OCCUPIED
    assert np.all(belief.cells[np.arange(6), np.arange(6)] == UNKNOWN)


@st.composite
def reveal_cases(draw):
    """A random truth, a partly revealed belief, a sensor pose and a range."""
    w, h = draw(st.integers(5, 60)), draw(st.integers(5, 60))
    res = draw(st.sampled_from([0.1, 0.15625, 0.25, 0.5]))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = np.where(r.random((h, w)) < draw(st.floats(0.0, 0.3)), OCCUPIED, FREE)
    if draw(st.booleans()):       # a truth with unknown cells nets them off the count
        cells[r.random((h, w)) < 0.05] = UNKNOWN
    truth = OccupancyGrid(res, cells)
    belief_cells = np.where(r.random((h, w)) < draw(st.floats(0.0, 1.0)), cells, UNKNOWN)
    if draw(st.booleans()):       # stale cells that disagree with the truth
        stale = r.random((h, w)) < 0.05
        belief_cells[stale] = r.integers(0, 3, int(stale.sum()))
    belief = OccupancyGrid(res, belief_cells)

    kind = draw(st.sampled_from(["inside", "outside", "x_edge", "y_edge", "corner"]))
    fx, fy = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    if kind == "outside":
        fx, fy = draw(st.sampled_from([(-0.2, fy), (1.2, fy), (fx, -0.2), (fx, 1.2)]))
    x, y = fx * w * res, fy * h * res
    if kind in ("x_edge", "corner"):
        x = draw(st.integers(0, w)) * res
    if kind in ("y_edge", "corner"):
        y = draw(st.integers(0, h)) * res
    sensor_range = draw(st.one_of(st.floats(0.05, 1.0), st.floats(1.0, 1.5 * max(w, h)))) * res
    n_rays = draw(st.sampled_from([8, 9, 720, 1440]))
    return truth, belief, Pose2D(x, y, 0.0), sensor_range, n_rays


@settings(max_examples=200, deadline=None)
@given(reveal_cases())
def test_reveal_matches_masked_reference(case):
    """The parking march reveals the same cells as the all-rays masked loop."""
    _assert_reveal_matches_reference(*case)


def test_reveal_matches_reference_on_unknown_large():
    """A sequence of reveals into one belief at the spec's range and ray
    count, first from six of the mission's free poses: every call both parks
    stopped rays and drops them in bulk."""
    spec = bundled("unknown_large")
    truth = spec.truth_map
    belief = OccupancyGrid.filled(truth.width_cells, truth.height_cells, truth.resolution,
                                  UNKNOWN)
    poses = [(40.0 + 2.0 * k, 10.0) for k in range(6)] + [(41.3, 11.7), (140.0, 50.0)]
    for x, y in poses:
        _assert_reveal_matches_reference(truth, belief, Pose2D(x, y, 0.0),
                                         spec.sensor_range, spec.n_rays)


@st.composite
def batch_reveal_cases(draw):
    """A `reveal_cases` world with 0-6 sensor poses, each drawn anywhere on
    or off the grid, in an occupied cell, or repeating an earlier pose, and
    a chunk size that splits the batch's rays over several marches, also
    inside one pose's rays.  Few rays overlap little, so a ray a chunk
    drops shows in the cells."""
    truth, belief, pose, sensor_range, _ = draw(reveal_cases())
    n_rays = draw(st.sampled_from([8, 9, 16, 720]))
    h, w = truth.cells.shape
    res = truth.resolution
    occupied = np.argwhere(truth.cells == OCCUPIED)
    poses = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["anywhere", "occupied", "repeat"]))
        if kind == "occupied" and occupied.size:
            iy, ix = occupied[draw(st.integers(0, len(occupied) - 1))]
            poses.append(Pose2D((ix + draw(st.floats(0.0, 0.99))) * res,
                                (iy + draw(st.floats(0.0, 0.99))) * res, 0.0))
        elif kind == "repeat" and poses:
            poses.append(draw(st.sampled_from(poses)))
        else:
            poses.append(Pose2D(draw(st.floats(-0.2, 1.2)) * w * res,
                                draw(st.floats(-0.2, 1.2)) * h * res, 0.0))
    poses.insert(draw(st.integers(0, len(poses))), pose)   # also an edge or corner pose
    poses = poses[:draw(st.integers(0, len(poses)))]
    chunk = draw(st.integers(max(1, n_rays // 8), 3 * n_rays + 1))
    return truth, belief, poses, sensor_range, n_rays, chunk


@settings(max_examples=150, deadline=None)
@given(batch_reveal_cases())
def test_batched_reveal_matches_one_reference_reveal_per_pose(case):
    """One batched reveal leaves the cells of one reference reveal per pose,
    in order, returns the sum of their counts, and writes the belief once
    exactly when one of them wrote it."""
    truth, belief, poses, sensor_range, n_rays, chunk = case
    expect = OccupancyGrid(belief.resolution, belief.cells, belief.cap)
    with counted_writes() as writes, mock.patch.object(grid_module, "_CHUNK_RAYS", chunk):
        got = raytrace_reveal(truth, belief, poses, sensor_range, n_rays)
        assert got == raytrace_reveal_reference(truth, expect, poses, sensor_range, n_rays)
    assert np.array_equal(belief.cells, expect.cells)
    assert writes[belief] == min(writes[expect], 1)


def test_batched_reveal_memory_is_bounded_by_the_chunk():
    """128 poses of unknown_large at the spec's range and 1440 rays are
    184320 rays: marched all at once, their per-ray arrays alone would take
    about 12 MB.  In chunks the reveal's peak stays within 8 MB (the grid's
    bordered codes, seen marks and changed mask take about 1 MB)."""
    spec = bundled("unknown_large")
    truth = spec.truth_map
    belief = OccupancyGrid.filled(truth.width_cells, truth.height_cells, truth.resolution,
                                  UNKNOWN)
    free = np.argwhere(truth.cells == FREE)
    picked = free[np.random.default_rng(0).choice(len(free), 128, replace=False)]
    poses = [Pose2D((ix + 0.5) * truth.resolution, (iy + 0.5) * truth.resolution, 0.0)
             for iy, ix in picked]
    revealed, peak = traced_peak(
        lambda: raytrace_reveal(truth, belief, poses, spec.sensor_range, spec.n_rays))
    assert revealed > 0
    assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MB"
