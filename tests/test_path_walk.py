"""Property tests for walking a planned path by drive arc length.

`PlannedPath.walk()` gives every segment's starting drive arc length; the
simulator's follower, the replan stitch gear, `slice` and the path
collision check read it, and `walk(rotations_done)` skips the rotations the
vehicle has executed.  Each is checked against the implementation it
replaced (`oracles.PathCursor`, `oracles.gear_at`), against `pose_at` or
against the follower, on random `PathBuilder` paths with empty and
sub-nanometre drive runs, leading, trailing and back-to-back rotations, and
runs that end within a nanometre of a whole number of steps.
"""
from __future__ import annotations

import math
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from hybridplan.geometry import Pose2D, move_along_arc
from hybridplan.grid import OccupancyGrid
from hybridplan.mission import MissionState, check_path_collision
from hybridplan.planner import DriveSegment, PathBuilder, PlannedPath, RotationSegment
from hybridplan.simulate import _follow, path_to_json
from hybridplan.vehicle import CollisionChecker, VehicleSpec

from conftest import pose_close
import oracles

SAMPLE_SPACING = 0.4   # [m] largest distance between builder samples

_rotation = st.tuples(st.just("rotate"), st.floats(-3.1, 3.1))


@st.composite
def paths(draw, drive_step: float = 0.5) -> PlannedPath:
    """A builder path; run lengths include whole multiples of drive_step."""
    run_length = st.one_of(
        st.just(0.0),
        st.floats(1e-12, 9e-10),
        st.floats(0.1, 5.0),
        st.builds(lambda n, eps: n * drive_step + eps, st.integers(1, 4),
                  st.sampled_from([-5e-10, 0.0, 5e-10, 2e-9])))
    drive = st.tuples(st.just("drive"), run_length, st.sampled_from([0.0, 0.2, -0.35]),
                      st.sampled_from([1, -1]))
    ops = draw(st.lists(st.one_of(_rotation, drive), min_size=1, max_size=8))
    if draw(st.booleans()):
        ops = [draw(_rotation)] + ops
    if draw(st.booleans()):
        ops = ops + [draw(_rotation)]
    x, y, yaw = 3.0, -2.0, draw(st.floats(-3.1, 3.1))
    builder = PathBuilder(Pose2D(x, y, yaw))
    for op in ops:
        if op[0] == "rotate":
            builder.add_rotation(op[1])
            yaw = Pose2D(x, y, yaw + op[1]).yaw
            continue
        _, length, kappa, direction = op
        n = max(1, math.ceil(length / SAMPLE_SPACING))
        for _ in range(n):
            x, y, yaw = move_along_arc(x, y, yaw, kappa, direction * length / n)
            builder.add_drive_sample(x, y, yaw, kappa, direction)
    return builder.finish()


@st.composite
def paths_and_steps(draw):
    drive_step = draw(st.floats(0.05, 2.0))
    return draw(paths(drive_step)), drive_step


@settings(max_examples=200, deadline=None)
@given(paths_and_steps())
def test_follow_matches_cursor_reference(case):
    path, drive_step = case
    places, driven = follow(path, drive_step)
    ref_places, ref_driven = oracles.cursor_follow(path, drive_step, path.start_pose())
    assert places == ref_places
    assert path_to_json(driven) == path_to_json(ref_driven)


def follow(path: PlannedPath, drive_step: float):
    """Drive `path` with the simulator's follower from its start: the
    vehicle's (pose, progress_s, rotations_done, odometer) after every step,
    and the driven path the follower records."""
    start = path.start_pose()
    state = MissionState(vehicle_pose=start, goal=start, current_path=path)
    builder = PathBuilder(start)
    places = [(state.vehicle_pose, state.progress_s, state.rotations_done, state.odometer)
              for _ in _follow(state, builder, drive_step)]
    return places, builder.finish()


def _rotation_poses(segments) -> list:
    """Each rotation's pose after it, as the follower puts the vehicle."""
    return [Pose2D(seg.x, seg.y, seg.to_yaw) for seg in segments
            if isinstance(seg, RotationSegment)]


@settings(max_examples=150, deadline=None)
@given(paths_and_steps())
def test_executed_rotations_are_skipped_by_walk_slice_and_collision_check(case):
    """At every place the follower puts the vehicle, walk(rotations_done)
    yields exactly the rotations it has still to execute, the slice from the
    vehicle to the path's end keeps exactly those, and check_path_collision
    tests exactly those for a sweep."""
    path, drive_step = case
    total = path.total_drive_length
    places = [(path.start_pose(), 0.0, 0)] + [place[:3] for place in follow(path, drive_step)[0]]
    # the pose after each step that executed a rotation, by the index of that step's place
    rotations = {k: pose for k, (pose, _, done) in enumerate(places[1:], 1)
                 if done > places[k - 1][2]}
    tested = []

    def rotation_blocked(self, x, y):
        tested.append((x, y))
        return False

    def batch_blocked(self, xy, heading):
        return np.zeros(xy.shape[1:], dtype=bool)

    belief = OccupancyGrid.filled(4, 4, 0.5)
    disks = VehicleSpec().disks
    with mock.patch.object(CollisionChecker, "rotation_blocked", rotation_blocked), \
            mock.patch.object(CollisionChecker, "batch_blocked", batch_blocked):
        for k, (_, progress_s, rotations_done) in enumerate(places):
            pending = [pose for j, pose in rotations.items() if j > k]
            assert _rotation_poses(seg for _, seg in path.walk(rotations_done)) == pending
            if progress_s < total:   # [total, total) is empty; s_plan 0 slices nothing
                kept = path.slice(progress_s, total, rotations_done)
                assert _rotation_poses(kept.segments) == pending
            tested.clear()
            assert check_path_collision(path, progress_s, belief, disks, rotations_done) is None
            assert tested == [(pose.x, pose.y) for pose in pending]


@settings(max_examples=200, deadline=None)
@given(paths(), st.lists(st.floats(-0.1, 1.1), max_size=5))
def test_gear_at_matches_reference(path, fractions):
    total = path.total_drive_length
    probes = [f * total for f in fractions]
    for acc, _ in path.walk():   # segment boundaries and their tolerance edges
        probes += [acc, acc - 2e-9, acc - 1e-9, acc + 1e-9, acc + 2e-9]
    for s in probes:
        assert path.gear_at(s) == oracles.gear_at(path, s), s


@settings(max_examples=200, deadline=None)
@given(paths(), st.floats(0.0, 1.0))
def test_slice_end_pose_matches_pose_at(path, fraction):
    total = path.total_drive_length
    s = fraction * total
    # a rotation at exactly s is pending in pose_at but may be kept by slice
    rotation_accs = [acc for acc, seg in path.walk() if isinstance(seg, RotationSegment)]
    assume(1e-6 < s < total - 1e-6 and all(abs(s - a) > 1e-6 for a in rotation_accs))
    assert pose_close(path.slice(0.0, s).end_pose(), path.pose_at(s),
                      pos_tol=1e-9, yaw_tol=1e-9)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, 1e-12, 0.1, 0.5, 1.3]), min_size=1, max_size=12),
       st.lists(st.floats(-0.5, 1.5), max_size=8))
def test_interval_matches_clipped_searchsorted(steps, fractions):
    """The curvature-interval lookup picks the interval of the clipped
    searchsorted, before, on and past every boundary, with empty intervals."""
    s = np.concatenate(([0.0], np.cumsum(steps)))
    zeros = np.zeros(s.size)
    seg = DriveSegment(zeros, zeros, zeros, zeros[1:], s, 1)
    offsets = [f * s[-1] for f in fractions] + s.tolist() + [-1.0, s[-1] + 1.0]
    expect = np.clip(np.searchsorted(s, offsets, side="right") - 1, 0, len(steps) - 1)
    assert [int(seg.interval(o)) for o in offsets] == expect.tolist()
    assert np.array_equal(seg.interval(np.array(offsets)), expect)


@settings(max_examples=200, deadline=None)
@given(paths())
def test_builder_never_leaves_adjacent_same_gear_drives(path):
    """A drive run ends only at a gear change or a rotation, so no two
    neighbouring segments of a builder path are drives in the same gear."""
    for a, b in zip(path.segments, path.segments[1:]):
        assert not (isinstance(a, DriveSegment) and isinstance(b, DriveSegment)
                    and a.direction == b.direction)
