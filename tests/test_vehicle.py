from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridplan.geometry import Pose2D, move_along_arc
from hybridplan.grid import FREE, OCCUPIED, OccupancyGrid
from hybridplan.heuristic import build_distance_map
from hybridplan.planner import PathBuilder, PlannerConfig, _PrimitiveTable, field_cap, plan
from hybridplan.vehicle import (CollisionChecker, DiskSet, VehicleSpec, checker_thresholds,
                               make_disk_set)

from conftest import pose_close
from oracles import (expansion_blocked_reference, pose_collides, rectangle_hits_occupied,
                     rotation_collides)

MAX_STEER = math.radians(31.51)


def test_preset_values():
    v = VehicleSpec()
    assert v.length == 4.0 and v.width == 2.0
    assert v.max_steer == pytest.approx(MAX_STEER)
    assert v.min_turn_radius == pytest.approx(2.5 / math.tan(MAX_STEER))


@pytest.mark.parametrize("kwargs", [
    dict(wheelbase=0.0),
    dict(wheelbase=5.0),
    dict(rear_overhang=4.0),
    dict(max_steer=0.0),
    dict(max_steer=math.pi / 2),
    dict(n_disks=0),
])
def test_spec_invariants_rejected(kwargs):
    with pytest.raises(ValueError):
        VehicleSpec(**kwargs)


# ------------------------------------------------------------ bicycle model

def bicycle(pose: Pose2D, steer: float, arc: float) -> Pose2D:
    """Exact arc of the bicycle model with a 2.5 m wheelbase; arc < 0 reverses."""
    return Pose2D(*move_along_arc(pose.x, pose.y, pose.yaw, math.tan(steer) / 2.5, arc))


def test_straight_forward():
    assert pose_close(bicycle(Pose2D(0, 0, 0), 0.0, 1.0), Pose2D(1, 0, 0))


def test_straight_reverse():
    assert pose_close(bicycle(Pose2D(0, 0, 0), 0.0, -1.0), Pose2D(-1, 0, 0))


def test_quarter_turn_at_max_steer():
    radius = 2.5 / math.tan(MAX_STEER)
    arc = radius * math.pi / 2.0
    end = bicycle(Pose2D(0, 0, 0), MAX_STEER, arc)
    assert end.x == pytest.approx(radius, abs=1e-9)
    assert end.y == pytest.approx(radius, abs=1e-9)
    assert end.yaw == pytest.approx(math.pi / 2, abs=1e-9)
    assert radius == pytest.approx(4.078, abs=1e-3)


def test_substep_composition_is_exact(rng):
    for _ in range(20):
        steer = rng.uniform(-MAX_STEER, MAX_STEER)
        arc = rng.uniform(-3.0, 3.0)
        single = bicycle(Pose2D(0, 0, 0), steer, arc)
        for n in (2, 5, 10):
            pose = Pose2D(0, 0, 0)
            for _ in range(n):
                pose = bicycle(pose, steer, arc / n)
            assert pose_close(pose, single, pos_tol=1e-9, yaw_tol=1e-9)


# --------------------------------------------------------- in-place rotation

def rotated(pose: Pose2D, delta: float) -> Pose2D:
    """The pose after an in-place rotation, as a planned path records it."""
    builder = PathBuilder(pose)
    builder.add_rotation(delta)
    return builder.finish().end_pose()


def test_rotation_pure_yaw():
    assert pose_close(rotated(Pose2D(3, 4, 0), math.pi / 2), Pose2D(3, 4, math.pi / 2))


def test_rotation_full_turn_identity():
    assert pose_close(rotated(Pose2D(3, 4, 0), 2 * math.pi), Pose2D(3, 4, 0))


def test_rotation_wraps():
    out = rotated(Pose2D(0, 0, math.pi - 0.1), 0.2)
    assert out.yaw == pytest.approx(-math.pi + 0.1)


# ------------------------------------------------------------------- disks

def test_single_disk_covers_whole_rectangle():
    spec = VehicleSpec(n_disks=1)
    disks = make_disk_set(spec)
    assert disks.radius == pytest.approx(math.sqrt(5.0))
    assert len(disks.centers) == 1
    assert disks.centers[0] == pytest.approx(-spec.rear_overhang + 2.0)


def test_two_disk_radius():
    disks = make_disk_set(VehicleSpec(n_disks=2))
    assert disks.radius == pytest.approx(math.sqrt(2.0))


def test_many_disks_radius_approaches_half_width():
    disks = make_disk_set(VehicleSpec(n_disks=200))
    assert disks.radius == pytest.approx(1.0, abs=2e-4)


def test_disk_union_covers_footprint(rng):
    """Random interior points at random poses always fall inside some disk."""
    spec = VehicleSpec()
    disks = make_disk_set(spec)
    for _ in range(40):
        pose = Pose2D(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi))
        c, s = math.cos(pose.yaw), math.sin(pose.yaw)
        lon = rng.uniform(-spec.rear_overhang, spec.length - spec.rear_overhang, 250)
        lat = rng.uniform(-spec.width / 2, spec.width / 2, 250)
        px = pose.x + lon * c - lat * s
        py = pose.y + lon * s + lat * c
        covered = np.zeros(px.shape, dtype=bool)
        for off in disks.centers:
            cx, cy = pose.x + off * c, pose.y + off * s
            covered |= (px - cx) ** 2 + (py - cy) ** 2 <= disks.radius ** 2 + 1e-12
        assert covered.all()


# --------------------------------------------------------- collision checks

def grid_with_wall():
    g = OccupancyGrid.filled(256, 256, 0.15625, FREE)
    g.set_box(20.0, 0.0, 21.0, 40.0, OCCUPIED)
    return g


def test_open_space_clear():
    g = OccupancyGrid.filled(256, 256, 0.15625, FREE)
    g.set_cells((0, 0), OCCUPIED)  # keep the field finite
    checker = CollisionChecker(g, make_disk_set(VehicleSpec()))
    assert not checker.pose_blocked(20, 20, 0.3)


def test_occupied_under_vehicle_collides():
    checker = CollisionChecker(grid_with_wall(), make_disk_set(VehicleSpec()))
    assert checker.pose_blocked(20.5, 20.0, 0.0)


def test_wall_gap_below_disk_radius_collides():
    """Driving parallel to a wall at 0.2 m lateral gap trips the disk cover."""
    disks = make_disk_set(VehicleSpec(n_disks=2))
    checker = CollisionChecker(grid_with_wall(), disks)
    # wall face at x = 20, body half-width 1.0: centerline at 18.8 leaves 0.2 m
    assert disks.radius == pytest.approx(math.sqrt(2.0))
    assert checker.pose_blocked(18.8, 20.0, math.pi / 2)


def test_outside_grid_counts_as_collision():
    checker = CollisionChecker(grid_with_wall(), make_disk_set(VehicleSpec()))
    assert checker.pose_blocked(-10.0, 20.0, 0.0)


def test_rotation_open_space_clear():
    g = OccupancyGrid.filled(256, 256, 0.15625, FREE)
    g.set_cells((0, 0), OCCUPIED)
    checker = CollisionChecker(g, make_disk_set(VehicleSpec()))
    assert not checker.rotation_blocked(25, 25)


def test_rotation_near_wall_collides():
    disks = make_disk_set(VehicleSpec())
    checker = CollisionChecker(grid_with_wall(), disks)
    assert disks.swept_radius == pytest.approx(
        max(abs(c) for c in disks.centers) + disks.radius)
    assert checker.rotation_blocked(19.0, 20.0)


def test_a_threshold_above_the_field_cap_is_a_named_error():
    """A reader whose threshold exceeds its grid's cap, where the saturated
    field could decide otherwise, fails at the checker, route build or plan
    with the reader, its threshold and the cap; at the cap it builds."""
    g = grid_with_wall()

    def capped(cap):
        return OccupancyGrid(g.resolution, g.cells, cap)
    disks, reach = make_disk_set(VehicleSpec()), 3.0
    for reader, threshold in checker_thresholds(disks, g.resolution, reach):
        cap = threshold - 0.01
        with pytest.raises(ValueError, match=rf"^{reader} .* {threshold!r} m, .* {cap!r} m$"):
            CollisionChecker(capped(cap), disks, reach)
    at = capped(threshold)
    assert CollisionChecker(at, disks, reach).field is at.distance_field()
    with pytest.raises(ValueError, match=r"^the route's inflation_radius .* 1\.0 m, .* 0\.5 m$"):
        build_distance_map(capped(0.5), Pose2D(10.0, 10.0, 0.0), PlannerConfig(inflation_radius=1.0))
    cfg = PlannerConfig()
    reach = _PrimitiveTable(cfg, VehicleSpec()).reach      # 3.083 m
    cap = field_cap(VehicleSpec(), cfg, g.resolution)
    assert cap == max(
        [cfg.inflation_radius] + [t for _, t in checker_thresholds(disks, g.resolution, reach)])
    start, goal = Pose2D(5.0, 10.0, 0.0), Pose2D(15.0, 10.0, 0.0)
    with pytest.raises(ValueError, match=r"^clear_within .* above the field's cap"):
        plan(capped(float(np.nextafter(cap, 0.0))), start, goal, VehicleSpec(), cfg)
    runs = [plan(grid, start, goal, VehicleSpec(), cfg) for grid in (capped(cap), g)]
    assert len({(p.end_pose(), p.total_drive_length, s.nodes_expanded) for p, s in runs}) == 1


@pytest.mark.parametrize("cap", [math.nan, 0.0, -1.0])
def test_a_cap_that_is_not_positive_is_a_named_error(cap):
    with pytest.raises(ValueError, match=rf"^cap must be positive, got {cap!r}$"):
        OccupancyGrid(0.25, np.full((4, 4), FREE), cap)


def test_rotation_never_less_restrictive_than_pose(rng):
    checker = CollisionChecker(grid_with_wall(), make_disk_set(VehicleSpec()))
    for _ in range(300):
        x, y, yaw = rng.uniform(2, 38), rng.uniform(2, 38), rng.uniform(-math.pi, math.pi)
        if not checker.rotation_blocked(x, y):
            assert not checker.pose_blocked(x, y, yaw)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "rotation_blocked pads swept_radius by one half-cell diagonal, but moving a "
    "field value from the axle's cell to a disk centre's cell can lose two: at "
    "this pose the axle reads 3.187 >= 3.1457 while pose_blocked is True"))
def test_rotation_free_pose_is_free_next_to_a_single_cell():
    """One occupied cell and the checker `plan` builds: a rotation that
    `rotation_blocked` admits must leave the footprint free at every yaw."""
    vehicle, cfg = VehicleSpec(), PlannerConfig()
    g = OccupancyGrid(0.15625, np.full((128, 128), FREE), field_cap(vehicle, cfg, 0.15625))
    g.set_box(10.0, 10.0, 10.15625, 10.15625, OCCUPIED)
    checker = CollisionChecker(g, make_disk_set(vehicle), _PrimitiveTable(cfg, vehicle).reach)
    x, y, yaw = 13.174409858110078, 10.666560375387807, -2.8888941189211033
    assert not checker.rotation_blocked(x, y)
    assert not checker.pose_blocked(x, y, yaw)


def test_disk_check_conservative_against_rectangle_oracle(rng):
    """Whenever the exact footprint covers an occupied cell center, the disk
    test must report a collision."""
    spec = VehicleSpec()
    disks = make_disk_set(spec)
    for _ in range(20):
        g = OccupancyGrid.filled(160, 160, 0.15625, FREE)
        for _ in range(25):
            x, y = rng.uniform(2, 22, 2)
            g.set_box(x, y, x + rng.uniform(0.2, 1.5), y + rng.uniform(0.2, 1.5), OCCUPIED)
        checker = CollisionChecker(g, disks)
        occ = g.cells == OCCUPIED
        for _ in range(60):
            pose = Pose2D(rng.uniform(0, 25), rng.uniform(0, 25),
                          rng.uniform(-math.pi, math.pi))
            exact_hit = rectangle_hits_occupied(
                (pose.x, pose.y, pose.yaw), occ, g.resolution,
                spec.length, spec.width, spec.rear_overhang)
            if exact_hit:
                assert checker.pose_blocked(pose.x, pose.y, pose.yaw)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_disks=st.integers(1, 4))
def test_checker_matches_scalar_reference(seed, n_disks):
    """Every checker entry point decides as the scalar per-disk loop does,
    on poses on the grid and partly or wholly off it."""
    r = np.random.default_rng(seed)
    res = 0.15625
    g = OccupancyGrid.filled(int(r.integers(40, 120)), int(r.integers(40, 120)), res, FREE)
    w_m, h_m = g.width_cells * res, g.height_cells * res
    for _ in range(int(r.integers(0, 8))):
        x, y = r.uniform(0, w_m), r.uniform(0, h_m)
        g.set_box(x, y, x + r.uniform(0.2, 3.0), y + r.uniform(0.2, 3.0), OCCUPIED)
    disks = make_disk_set(VehicleSpec(n_disks=n_disks))
    checker = CollisionChecker(g, disks)
    field = g.distance_field().values
    n = 150
    xs = r.uniform(-4.0, w_m + 4.0, n)
    ys = r.uniform(-4.0, h_m + 4.0, n)
    yaws = r.uniform(-math.pi, math.pi, n)
    cos_yaw = np.array([math.cos(a) for a in yaws])
    sin_yaw = np.array([math.sin(a) for a in yaws])
    batch = checker.batch_blocked(np.array([xs, ys]), np.array([cos_yaw, sin_yaw]))
    for i in range(n):
        pose = Pose2D(float(xs[i]), float(ys[i]), float(yaws[i]))
        expect = pose_collides(pose, disks, field, res)
        assert checker.pose_blocked(pose.x, pose.y, pose.yaw) == expect
        assert bool(batch[i]) == expect
        assert checker.rotation_blocked(pose.x, pose.y) == \
            rotation_collides(pose, disks, field, res)
    for shape in ((2, 75), (3, 5, 10)):
        xy = np.array([xs, ys]).reshape((2,) + shape)
        heading = np.array([cos_yaw, sin_yaw]).reshape((2,) + shape)
        assert np.array_equal(checker.batch_blocked(xy, heading), batch.reshape(shape))
    # one heading broadcast over a row of positions, as a straight leg is checked
    same_yaw = checker.batch_blocked(np.array([xs, ys]), np.array([cos_yaw[:1], sin_yaw[:1]]))
    for i in range(n):
        expect = pose_collides(Pose2D(float(xs[i]), float(ys[i]), float(yaws[0])),
                               disks, field, res)
        assert bool(same_yaw[i]) == expect


def test_blocked_mask_follows_set_box():
    """The blocked-cell mask is memoized on the grid, and a cell write drops it."""
    g = OccupancyGrid.filled(120, 120, 0.15625, FREE)
    g.set_cells((0, 0), OCCUPIED)
    disks = make_disk_set(VehicleSpec())
    before = CollisionChecker(g, disks)
    assert CollisionChecker(g, disks).blocked is before.blocked
    assert not before.pose_blocked(9.0, 9.0, 0.3)
    g.set_box(8.5, 8.5, 9.5, 9.5, OCCUPIED)
    after = CollisionChecker(g, disks)
    assert after.pose_blocked(9.0, 9.0, 0.3)
    assert np.array_equal(after.blocked, g.distance_field().values < after.threshold)
    g.set_box(8.5, 8.5, 9.5, 9.5, FREE)
    assert not CollisionChecker(g, disks).pose_blocked(9.0, 9.0, 0.3)


def test_previous_mask_freed_once_rebuilt():
    """The memo hands a build its previous value and then lets it go: once a
    checker is built on the written grid, the old mask is not held."""
    g = OccupancyGrid.filled(120, 120, 0.15625, FREE)
    disks = make_disk_set(VehicleSpec())
    old_mask = weakref.ref(CollisionChecker(g, disks).blocked)
    g.set_box(8.5, 8.5, 9.5, 9.5, OCCUPIED)
    gc.collect()
    assert old_mask() is not None           # still the previous generation's value
    CollisionChecker(g, disks)
    gc.collect()
    assert old_mask() is None


def _cells_within(x: float, y: float, reach: float, res: float):
    """One point inside every cell (on or off the grid) that the disc of
    radius reach around (x, y) touches: the cell's nearest point to (x, y),
    nudged into the cell's interior, kept when it lies within reach."""
    nudge = res * 1e-7
    ix0 = math.floor((x - reach) / res) - 1
    iy0 = math.floor((y - reach) / res) - 1
    ix1 = math.floor((x + reach) / res) + 1
    iy1 = math.floor((y + reach) / res) + 1
    for ix in range(ix0, ix1 + 1):
        lo_x = ix * res
        px = min(max(x, lo_x + nudge), lo_x + res - nudge)
        for iy in range(iy0, iy1 + 1):
            lo_y = iy * res
            py = min(max(y, lo_y + nudge), lo_y + res - nudge)
            if math.hypot(px - x, py - y) <= reach:
                yield px, py


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), res=st.sampled_from([0.15625, 0.2, 0.25, 0.5]),
       density=st.sampled_from([0.0, 0.002, 0.02, 0.1]), n_disks=st.integers(1, 4))
def test_clear_within_proves_every_disk_free(seed, res, density, n_disks):
    """When `clear_within` says clear, every disk centred within reach is free
    by the scalar reference, the cells next to the grid edge and off it
    included; an obstacle-free grid (+inf field) is tested too.

    Half of the reaches are drawn just below the field's own margin, where
    only the half-cell-diagonal terms keep the answer correct.  Every checker
    reads the exact field (cap +inf), so no reach is bounded by a cap."""
    r = np.random.default_rng(seed)
    w, h = int(r.integers(16, 60)), int(r.integers(16, 60))
    g = OccupancyGrid(res, np.where(r.random((h, w)) < density, OCCUPIED, FREE))
    radius = float(r.uniform(0.05, 1.0))
    disks = DiskSet(tuple(sorted(r.uniform(-1.0, 1.5, n_disks).tolist())), radius)
    one_disk = DiskSet((0.0,), radius)
    checker = CollisionChecker(g, disks)
    field = g.distance_field().values
    w_m, h_m = w * res, h * res
    for i in range(30):
        x = float(r.uniform(-1.0, w_m + 1.0))
        y = float(r.uniform(-1.0, h_m + 1.0))
        reach = float(r.uniform(0.0, 2.5))
        if i % 2:
            margin = checker.field.at(x, y) - checker.threshold
            reach = margin - float(r.uniform(0.0, 1.0)) * res * math.sqrt(2.0)
            if not 0.0 <= reach <= 2.5:
                continue
        if not CollisionChecker(g, disks, reach).clear_within(x, y):
            continue
        for px, py in _cells_within(x, y, reach, res):
            assert not pose_collides(Pose2D(px, py, 0.0), one_disk, field, res)
        for _ in range(20):
            yaw = float(r.uniform(-math.pi, math.pi))
            d = r.uniform(-reach, reach, 2)
            pose = Pose2D(x + float(d[0]), y + float(d[1]), yaw)
            if all(math.hypot(pose.x + o * math.cos(pose.yaw) - x,
                              pose.y + o * math.sin(pose.yaw) - y) <= reach
                   for o in disks.centers):
                assert not pose_collides(pose, disks, field, res)


def _expansion_poses(r, checker: CollisionChecker, table, obstacle):
    """Node poses by kind: next to `obstacle` and anywhere in the interior
    (reach box on the grid), near or past a grid edge, one ulp off a cell
    boundary, and one with a disk centre of some sub-sample a few roundings
    off an x boundary of the disk mask, where the mask changes; the yaws lie
    on the axes or at random."""
    res = checker.field.resolution
    h_m, w_m = (n * res for n in checker.blocked.shape)
    m = table.reach + 0.01
    edges = np.argwhere(checker.blocked[:, 1:] != checker.blocked[:, :-1])
    for i in range(48):
        kind = "obstacle" if i == 0 else ("interior", "edge", "ulp", "boundary")[i % 4]
        x, y = obstacle if kind == "obstacle" else (float(r.uniform(m, w_m - m)),
                                                    float(r.uniform(m, h_m - m)))
        yaw = float(r.choice([0.0, math.pi / 2, math.pi, -math.pi / 2, r.uniform(-math.pi, math.pi)]))
        if kind == "edge":
            side = float(r.uniform(-0.5, m + 0.5))
            x, y = [(side, y), (w_m - side, y), (x, side), (x, h_m - side)][r.integers(4)]
        elif kind == "ulp":
            x, y = (math.nextafter(round(v / res) * res, (-1) ** int(r.integers(2)) * math.inf)
                    for v in (x, y))
        elif kind == "boundary" and len(edges):
            iy, ix = edges[r.integers(len(edges))] + (0, 1)
            dx, dy, cd, sd = table.samples[:, r.integers(len(table.steps)), r.integers(table.n_sub)]
            c, s, o = math.cos(yaw), math.sin(yaw), float(r.choice(checker.offsets))
            x = ix * res - (dx * c + dy * -s + o * (cd * c + sd * -s))
            y = (iy + 0.5) * res - (dx * s + dy * c + o * (cd * s + sd * c))
            n = int(r.integers(-3, 4))
            for _ in range(abs(n)):
                x = math.nextafter(x, n * math.inf)
        yield kind, x, y, yaw


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), res=st.sampled_from([0.15625, 0.25]),
       density=st.sampled_from([0.0, 0.005, 0.03, 0.15]), n_disks=st.integers(1, 4),
       collision_step=st.sampled_from([0.15625, 0.3]))
def test_expansion_blocked_matches_the_survivor_batch(seed, res, density, n_disks,
                                                      collision_step):
    """`expansion_blocked` gives every drive primitive the verdict of the
    survivor batch it replaced (`expansion_blocked_reference`), at the node
    poses of `_expansion_poses`.  Both of its paths run: the disk mask read
    with no off-grid test, and `batch_blocked` where the reach box leaves
    the grid."""
    r = np.random.default_rng(seed)
    vehicle = VehicleSpec(n_disks=n_disks)
    config = PlannerConfig(collision_step=collision_step)
    table = _PrimitiveTable(config, vehicle)
    w, h = int(r.integers(48, 96)), int(r.integers(48, 96))
    cells = np.where(r.random((h, w)) < density, OCCUPIED, FREE)
    m = table.reach + 0.01
    obstacle = (float(r.uniform(m, w * res - m)), float(r.uniform(m, h * res - m)))
    cells[int(obstacle[1] / res), int(obstacle[0] / res)] = OCCUPIED
    g = OccupancyGrid(res, cells, field_cap(vehicle, config, res))
    checker = CollisionChecker(g, make_disk_set(vehicle), table.reach)
    fallbacks = [0]
    batch = checker.batch_blocked

    def counted(*args):
        fallbacks[0] += 1
        return batch(*args)
    drives = list(range(len(table.steps)))
    paths = {"mask": 0, "batch_blocked": 0}
    for kind, x, y, yaw in _expansion_poses(r, checker, table, obstacle):
        c, s = math.cos(yaw), math.sin(yaw)
        expected = expansion_blocked_reference(checker, table.samples, x, y, c, s, drives)
        checker.batch_blocked, fallbacks[0] = counted, 0
        got = checker.expansion_blocked(x, y, c, s, table.samples)
        del checker.batch_blocked
        assert {p for p in drives if got and got[p]} == set(expected), (kind, x, y, yaw)
        assert got == [] or len(got) == len(drives)
        if got:
            paths["batch_blocked" if fallbacks[0] else "mask"] += 1
    assert paths["mask"] and paths["batch_blocked"], paths
