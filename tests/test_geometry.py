from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from hybridplan.geometry import Pose2D, move_along_arc, normalize_angle, normalize_angles
from hybridplan.reeds_shepp import RSPath, RSSegment, rs_all_paths, sample_path, sample_paths

from conftest import angles_close, pose_close
from oracles import path_end_pose, sample_path_scalar


def sample_rows(samples):
    """(pose, curvature, direction) of every sample, the start pose first."""
    return [(Pose2D(x, y, yaw), kappa, direction) for x, y, yaw, kappa, direction in zip(
        *samples.xy.tolist(), samples.yaws.tolist(), samples.kappas.tolist(),
        samples.directions.tolist())]


def test_normalize_identity():
    assert normalize_angle(0.0) == 0.0


def test_normalize_three_pi_maps_to_lower_bound():
    assert normalize_angle(3.0 * math.pi) == pytest.approx(-math.pi)


def test_normalize_in_range_passthrough():
    assert normalize_angle(-math.pi / 4) == pytest.approx(-math.pi / 4)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_normalize_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        normalize_angle(bad)


@given(st.floats(min_value=-1e6, max_value=1e6))
def test_normalize_range_and_congruence(theta):
    out = normalize_angle(theta)
    assert -math.pi <= out < math.pi
    assert angles_close(out, theta, tol=1e-6)


def test_pose_normalizes_yaw():
    p = Pose2D(1.0, 2.0, 3.0 * math.pi)
    assert p.yaw == pytest.approx(-math.pi)


def test_pose_rejects_non_finite_position():
    with pytest.raises(ValueError):
        Pose2D(math.nan, 0.0, 0.0)


def test_sample_straight_three_samples():
    path = RSPath(segments=(RSSegment("straight", 1, 1.0),), turn_radius=1.0,
                  total_length=1.0)
    samples = sample_rows(sample_path(path, Pose2D(0, 0, 0), 0.5))
    assert len(samples) == 3
    xs = [p.x for p, _, _ in samples]
    assert xs == pytest.approx([0.0, 0.5, 1.0])
    assert all(k == 0.0 for _, k, _ in samples)


def test_sample_zero_length_path():
    path = RSPath(segments=(), turn_radius=1.0, total_length=0.0)
    samples = sample_rows(sample_path(path, Pose2D(3, 4, 0.5), 0.1))
    assert len(samples) == 1
    assert samples[0][0] == Pose2D(3, 4, 0.5)
    assert samples[0][1] == 0.0
    assert samples[0][2] == 1      # forward


def test_sample_quarter_circle_stays_on_circle():
    radius = 2.0
    path = RSPath(segments=(RSSegment("left", 1, math.pi / 2 * radius),),
                  turn_radius=radius, total_length=math.pi / 2 * radius)
    samples = sample_rows(sample_path(path, Pose2D(0, 0, 0), 0.1))
    for pose, kappa, direction in samples:
        assert math.hypot(pose.x - 0.0, pose.y - radius) == pytest.approx(radius, abs=1e-9)
        assert direction == 1
    assert samples[-1][1] == pytest.approx(1.0 / radius)


def test_sample_spacing_and_final_pose(rng):
    for _ in range(30):
        start = Pose2D(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi))
        goal = Pose2D(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi))
        path = rs_all_paths(start, goal, 1.5)[0]
        step = 0.2
        samples = sample_rows(sample_path(path, start, step))
        assert pose_close(samples[-1][0], goal)
        prev = samples[0][0]
        for pose, _, _ in samples[1:]:
            assert math.hypot(pose.x - prev.x, pose.y - prev.y) <= step + 1e-9
            prev = pose


def test_reintegrating_samples_reproduces_goal(rng):
    """Composing each sampled (curvature, direction) interval lands on the goal."""
    for _ in range(25):
        start = Pose2D(rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-math.pi, math.pi))
        goal = Pose2D(rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-math.pi, math.pi))
        path = rs_all_paths(start, goal, 1.0)[0]
        x, y, yaw = start.x, start.y, start.yaw
        pos = start
        for pose, kappa, direction in sample_rows(sample_path(path, start, 0.25))[1:]:
            chord = math.hypot(pose.x - pos.x, pose.y - pos.y)
            if kappa != 0.0:
                chord = 2.0 / abs(kappa) * math.asin(min(abs(kappa) * chord / 2.0, 1.0))
            x, y, yaw = move_along_arc(x, y, yaw, kappa, chord * direction)
            pos = pose
        assert math.hypot(x - goal.x, y - goal.y) < 1e-6
        assert angles_close(yaw, goal.yaw, 1e-6)


def test_path_end_pose_matches_goal(rng):
    for _ in range(20):
        goal = Pose2D(rng.uniform(-6, 6), rng.uniform(-6, 6), rng.uniform(-math.pi, math.pi))
        path = rs_all_paths(Pose2D(0, 0, 0), goal, 2.0)[0]
        assert pose_close(path_end_pose(path, Pose2D(0, 0, 0)), goal)


_segments = st.lists(st.tuples(st.sampled_from(["left", "right", "straight"]),
                               st.sampled_from([1, -1]),
                               st.one_of(st.just(0.0), st.floats(1e-6, 12.0))),
                     min_size=0, max_size=5)


@settings(max_examples=150, deadline=None)
@given(_segments, st.floats(0.3, 10.0), st.floats(-200.0, 200.0), st.floats(-200.0, 200.0),
       st.floats(-10.0, 10.0), st.floats(0.02, 2.0))
def test_array_sampler_bit_identical_to_scalar_recurrence(segs, radius, x, y, yaw, step):
    path = RSPath(segments=tuple(RSSegment(*seg) for seg in segs), turn_radius=radius,
                  total_length=sum(seg[2] for seg in segs))
    start = Pose2D(x, y, yaw)
    ref = sample_path_scalar(path, start, step)
    samples = sample_path(path, start, step)
    assert len(samples) == 1 + len(ref)
    xs, ys = samples.xy.tolist()
    assert xs[1:] == [r[0] for r in ref]
    assert ys[1:] == [r[1] for r in ref]
    assert samples.yaws.tolist()[1:] == [r[3] for r in ref]
    assert list(zip(samples.kappas.tolist(), samples.directions.tolist()))[1:] == \
        [r[4:] for r in ref]
    assert (xs[0], ys[0], samples.yaws[0], samples.kappas[0], samples.directions[0]) == \
        (start.x, start.y, start.yaw, 0.0, 1)


@settings(max_examples=150, deadline=None)
@given(st.lists(_segments, min_size=1, max_size=4), st.integers(1, 100), st.floats(0.3, 10.0),
       st.floats(-200.0, 200.0), st.floats(-200.0, 200.0), st.floats(-10.0, 10.0),
       st.floats(0.02, 2.0))
@example([[], [("straight", 1, 0.0), ("straight", 1, 3.0), ("left", -1, 2.0)],
          [("right", 1, 12.0)]], 64, 2.0, 1.0, 2.0, 0.5, 0.1)   # empty, shorter, longer
def test_batched_prefix_bit_identical_to_single_path_samples(paths, limit, radius, x, y,
                                                             yaw, step):
    """Each row of a limited batch is the path's own first min(limit, n)
    samples, bit for bit, and a shorter row repeats its end pose."""
    paths = [RSPath(segments=tuple(RSSegment(*seg) for seg in segs), turn_radius=radius,
                    total_length=sum(seg[2] for seg in segs)) for segs in paths]
    start = Pose2D(x, y, yaw)
    turns = {"left": 1.0, "right": -1.0, "straight": 0.0}
    batch = sample_paths([[(turns[seg.kind], seg.direction, seg.length) for seg in path.segments]
                          for path in paths], radius, start, step, limit)
    singles = [sample_path(path, start, step) for path in paths]
    assert batch.xy.shape == (2, len(paths), min(limit, max(len(s) for s in singles)))
    for row, single in enumerate(singles):
        n = min(limit, len(single))
        assert batch.xy[:, row, :n].tolist() == single.xy[:, :n].tolist()
        for got, want in ((batch.yaws, single.yaws), (batch.kappas, single.kappas),
                          (batch.directions, single.directions)):
            assert got[row, :n].tolist() == want[:n].tolist()
        end = (single.xy[0, n - 1], single.xy[1, n - 1], single.yaws[n - 1])
        assert all(pad == end for pad in zip(*batch.xy[:, row, n:].tolist(),
                                             batch.yaws[row, n:].tolist()))


def test_normalize_angles_matches_scalar(rng):
    theta = rng.uniform(-50.0, 50.0, 2000)
    assert normalize_angles(theta).tolist() == [normalize_angle(t) for t in theta.tolist()]
