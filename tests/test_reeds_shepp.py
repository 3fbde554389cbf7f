from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hybridplan.geometry import Pose2D
from hybridplan.reeds_shepp import rs_all_paths, rs_path_length

from conftest import pose_close
from oracles import (path_end_pose, rs_all_paths_reference, rs_oracle_length, rs_oracle_lengths,
                     rs_path_length_reference)

# independently computed with the multistart-Newton word enumeration: the
# optimum for (0,0,0) -> (0,2,pi) at radius 1 is a single reversed half circle
SIDE_FLIP_LENGTH = math.pi


def test_straight_line_single_segment():
    path = rs_all_paths(Pose2D(0, 0, 0), Pose2D(10, 0, 0), 1.0)[0]
    assert len(path.segments) == 1
    seg = path.segments[0]
    assert seg.kind == "straight"
    assert seg.direction == 1
    assert seg.length == pytest.approx(10.0)
    assert path.total_length == pytest.approx(10.0)


def test_identity_zero_length():
    path = rs_all_paths(Pose2D(0, 0, 0), Pose2D(0, 0, 0), 1.0)[0]
    assert path.total_length == 0.0


def test_side_flip_matches_frozen_oracle_value():
    goal = Pose2D(0, 2, math.pi)
    path = rs_all_paths(Pose2D(0, 0, 0), goal, 1.0)[0]
    assert path.total_length == pytest.approx(SIDE_FLIP_LENGTH, abs=1e-9)
    assert rs_oracle_length((0, 0, 0), (0, 2, math.pi), 1.0) == pytest.approx(
        SIDE_FLIP_LENGTH, abs=1e-6)


def test_structural_invariants(rng):
    for _ in range(50):
        goal = Pose2D(rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(-math.pi, math.pi))
        radius = rng.uniform(0.7, 3.5)
        path = rs_all_paths(Pose2D(0, 0, 0), goal, radius)[0]
        assert len(path.segments) <= 5
        assert all(s.length >= 0.0 for s in path.segments)
        assert path.total_length == pytest.approx(sum(s.length for s in path.segments))
        assert pose_close(path_end_pose(path, Pose2D(0, 0, 0)), goal)


def test_rigid_transform_invariance(rng):
    """The length is invariant when both poses move by the same rigid motion."""
    for _ in range(40):
        start = Pose2D(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi))
        goal = Pose2D(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi))
        base = rs_path_length(start, goal, 1.3)
        dx, dy, dth = rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-math.pi, math.pi)
        c, s = math.cos(dth), math.sin(dth)

        def moved(p):
            return Pose2D(dx + c * p.x - s * p.y, dy + s * p.x + c * p.y, p.yaw + dth)

        assert rs_path_length(moved(start), moved(goal), 1.3) == pytest.approx(base, abs=1e-9)


def test_length_lower_bounded_by_euclid(rng):
    for _ in range(100):
        goal = Pose2D(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-math.pi, math.pi))
        length = rs_path_length(Pose2D(0, 0, 0), goal, 1.0)
        assert length >= math.hypot(goal.x, goal.y) - 1e-9


def test_matches_newton_oracle_on_random_pairs(rng):
    n = 150
    goals = np.column_stack([rng.uniform(-8, 8, n), rng.uniform(-8, 8, n),
                             rng.uniform(-math.pi, math.pi, n)])
    radii = rng.uniform(0.8, 4.0, n)
    targets = np.column_stack([goals[:, 0] / radii, goals[:, 1] / radii, goals[:, 2]])
    oracle = rs_oracle_lengths(targets) * radii
    for g, r, expect in zip(goals, radii, oracle):
        got = rs_path_length(Pose2D(0, 0, 0), Pose2D(*g), r)
        assert got == pytest.approx(expect, abs=1e-6)


def test_all_paths_sorted_and_contains_optimum(rng):
    goal = Pose2D(4.0, 3.0, 0.7)
    paths = rs_all_paths(Pose2D(0, 0, 0), goal, 1.5)
    lengths = [p.total_length for p in paths]
    assert lengths == sorted(lengths)
    assert paths[0].total_length == pytest.approx(rs_path_length(Pose2D(0, 0, 0), goal, 1.5),
                                                  abs=1e-12)
    assert paths[0].total_length == pytest.approx(
        rs_oracle_length((0, 0, 0), (goal.x, goal.y, goal.yaw), 1.5), abs=1e-6)
    for p in paths[:5]:
        assert pose_close(path_end_pose(p, Pose2D(0, 0, 0)), goal)


def _bits(paths):
    """Every path's segments, total length and place in the list; `repr` tells
    every float bit pattern (-0.0 included) and an int apart."""
    return [(tuple((seg.kind, seg.direction, repr(seg.length)) for seg in path.segments),
             repr(path.turn_radius), repr(path.total_length)) for path in paths]


# the largest yaw below pi that normalize_angle keeps (one ulp less rounds to -pi)
_BELOW_PI = math.nextafter(math.nextafter(math.pi, 0.0), 0.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.floats(-math.pi, math.pi),
       st.floats(-30.0, 30.0), st.floats(-30.0, 30.0), st.floats(-math.pi, math.pi),
       st.floats(0.3, 6.0))
@example(0.0, 0.0, 0.0, 5.0, 2.0, 0.0, 1.0)                  # phi = 0
@example(1.0, 2.0, 0.0, 4.0, -3.0, _BELOW_PI, 2.0)           # phi just below pi
@example(1.0, 2.0, 0.0, 4.0, -3.0, -math.pi, 2.0)            # phi = -pi
@example(1.0, 2.0, 0.0, 4.0, -3.0, math.nextafter(-math.pi, 0.0), 2.0)   # and just above
@example(0.0, 0.0, 0.0, 10.0, 0.0, 0.0, 1.0)                 # a straight line ahead
@example(0.0, 0.0, 0.0, -10.0, 0.0, 0.0, 1.0)                # and behind
@example(3.0, -1.0, 2.0, 3.0, -1.0, 2.0, 4.0)                # the start pose itself
def test_word_table_matches_reference_bit_for_bit(x, y, yaw, gx, gy, gyaw, radius):
    """The word table and its one solve loop give every word's path, in the
    same order, and the same shortest length as the per-word enumeration."""
    start, goal = Pose2D(x, y, yaw), Pose2D(gx, gy, gyaw)
    assert _bits(rs_all_paths(start, goal, radius)) == \
        _bits(rs_all_paths_reference(start, goal, radius))
    assert repr(rs_path_length(start, goal, radius)) == \
        repr(rs_path_length_reference(start, goal, radius))
