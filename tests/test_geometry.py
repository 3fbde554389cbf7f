from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from hybridplan.geometry import Pose2D, move_along_arc, normalize_angle, normalize_angles
from hybridplan.planner import PathBuilder
from hybridplan.reeds_shepp import LEFT, RIGHT, STRAIGHT, rs_all_paths, sample_path, sample_paths
from hybridplan.simulate import kappa_dot_rms

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
    samples = sample_rows(sample_path([(STRAIGHT, 1, 1.0)], 1.0, Pose2D(0, 0, 0), 0.5))
    assert len(samples) == 3
    xs = [p.x for p, _, _ in samples]
    assert xs == pytest.approx([0.0, 0.5, 1.0])
    assert all(k == 0.0 for _, k, _ in samples)


def test_sample_zero_length_path():
    samples = sample_rows(sample_path([], 1.0, Pose2D(3, 4, 0.5), 0.1))
    assert len(samples) == 1
    assert samples[0][0] == Pose2D(3, 4, 0.5)
    assert samples[0][1] == 0.0
    assert samples[0][2] == 1      # forward


def test_sample_quarter_circle_stays_on_circle():
    radius = 2.0
    rows = [(LEFT, 1, math.pi / 2 * radius)]
    samples = sample_rows(sample_path(rows, radius, Pose2D(0, 0, 0), 0.1))
    for pose, kappa, direction in samples:
        assert math.hypot(pose.x - 0.0, pose.y - radius) == pytest.approx(radius, abs=1e-9)
        assert direction == 1
    assert samples[-1][1] == pytest.approx(1.0 / radius)


def _straight_drive():
    builder = PathBuilder(Pose2D(0, 0, 0))
    for x in (0.5, 1.0, 1.5):
        builder.add_drive_sample(x, 0.0, 0.0, 0.0, 1)
    return builder.finish()


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0], ids=["nan", "0", "-1"])
@pytest.mark.parametrize("call,message", [
    (lambda step: sample_paths([[(STRAIGHT, 1, 1.0)]], 1.0, Pose2D(0, 0, 0), step),
     "step must be positive"),
    (lambda step: sample_path([(STRAIGHT, 1, 1.0)], 1.0, Pose2D(0, 0, 0), step),
     "step must be positive"),
    (lambda ds: kappa_dot_rms(_straight_drive(), ds), "ds must be positive"),
], ids=["sample_paths", "sample_path", "kappa_dot_rms"])
def test_spacing_must_be_positive(call, message, bad):
    """A NaN spacing is named as 0 and -1 are, not left to fail in an int conversion."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(bad)


def test_sample_spacing_and_final_pose(rng):
    for _ in range(30):
        start = Pose2D(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi))
        goal = Pose2D(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi))
        rows = rs_all_paths(start, goal, 1.5)[0]
        step = 0.2
        samples = sample_rows(sample_path(rows, 1.5, start, step))
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
        rows = rs_all_paths(start, goal, 1.0)[0]
        x, y, yaw = start.x, start.y, start.yaw
        pos = start
        for pose, kappa, direction in sample_rows(sample_path(rows, 1.0, start, 0.25))[1:]:
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
        rows = rs_all_paths(Pose2D(0, 0, 0), goal, 2.0)[0]
        assert pose_close(path_end_pose(rows, 2.0, Pose2D(0, 0, 0)), goal)


_rows = st.lists(st.tuples(st.sampled_from([LEFT, RIGHT, STRAIGHT]),
                           st.sampled_from([1, -1]),
                           st.one_of(st.just(0.0), st.floats(1e-6, 12.0))),
                 min_size=0, max_size=5)


@settings(max_examples=150, deadline=None)
@given(_rows, st.floats(0.3, 10.0), st.floats(-200.0, 200.0), st.floats(-200.0, 200.0),
       st.floats(-10.0, 10.0), st.floats(0.02, 2.0))
def test_array_sampler_bit_identical_to_scalar_recurrence(rows, radius, x, y, yaw, step):
    start = Pose2D(x, y, yaw)
    ref = sample_path_scalar(rows, radius, start, step)
    samples = sample_path(rows, radius, start, step)
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
@given(st.lists(_rows, min_size=1, max_size=4), st.integers(1, 100), st.floats(0.3, 10.0),
       st.floats(-200.0, 200.0), st.floats(-200.0, 200.0), st.floats(-10.0, 10.0),
       st.floats(0.02, 2.0))
@example([[], [(STRAIGHT, 1, 0.0), (STRAIGHT, 1, 3.0), (LEFT, -1, 2.0)],
          [(RIGHT, 1, 12.0)]], 64, 2.0, 1.0, 2.0, 0.5, 0.1)   # empty, shorter, longer
def test_batched_prefix_bit_identical_to_single_path_samples(paths, limit, radius, x, y,
                                                             yaw, step):
    """Each row of a limited batch is the path's own first min(limit, n)
    samples, bit for bit, and a shorter row repeats its end pose."""
    start = Pose2D(x, y, yaw)
    batch = sample_paths(paths, radius, start, step, limit)
    singles = [sample_path(rows, radius, start, step) for rows in paths]
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
