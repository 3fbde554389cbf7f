"""Poses, angle arithmetic and arc-exact path sampling.

Everything in here is a pure function over immutable values; the rest of
the package builds on these primitives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Tuple

import numpy as np

TWO_PI = 2.0 * math.pi

# Segment kind constants shared with the Reeds-Shepp solver.
LEFT = "left"
RIGHT = "right"
STRAIGHT = "straight"

FORWARD = 1
REVERSE = -1


def normalize_angle(theta: float) -> float:
    """Reduce an angle to the half-open interval [-pi, pi)."""
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    return (theta + math.pi) % TWO_PI - math.pi


def normalize_angles(theta: np.ndarray) -> np.ndarray:
    """Element-wise normalize_angle; bit-identical to the scalar form."""
    return (theta + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True)
class Pose2D:
    """Planar pose; yaw is normalized to [-pi, pi) on construction."""

    x: float
    y: float
    yaw: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"pose position must be finite, got ({self.x!r}, {self.y!r})")
        object.__setattr__(self, "yaw", normalize_angle(self.yaw))

    def distance_to(self, other: "Pose2D") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


class RSSegment(NamedTuple):
    kind: str        # left / right / straight
    direction: int   # +1 forward, -1 reverse
    length: float    # arc length in meters, >= 0


@dataclass(frozen=True)
class RSPath:
    """A bounded-curvature path as an ordered list of arc/straight segments."""

    segments: Tuple[RSSegment, ...]
    turn_radius: float
    total_length: float

    def __post_init__(self) -> None:
        if self.turn_radius <= 0.0:
            raise ValueError("turn_radius must be positive")


def move_along_arc(x: float, y: float, yaw: float, curvature: float, signed_arc: float) -> Tuple[float, float, float]:
    """Advance a pose exactly along a circular arc (or straight for curvature 0).

    signed_arc < 0 means driving in reverse; returned yaw is not normalized.
    """
    if curvature == 0.0:
        return x + signed_arc * math.cos(yaw), y + signed_arc * math.sin(yaw), yaw
    yaw2 = yaw + signed_arc * curvature
    x2 = x + (math.sin(yaw2) - math.sin(yaw)) / curvature
    y2 = y - (math.cos(yaw2) - math.cos(yaw)) / curvature
    return x2, y2, yaw2


def segment_curvature(segment: RSSegment, turn_radius: float) -> float:
    if segment.kind == STRAIGHT:
        return 0.0
    if segment.kind == LEFT:
        return 1.0 / turn_radius
    return -1.0 / turn_radius


class SegmentSamples(NamedTuple):
    xs: np.ndarray       # (n,) positions after each step
    ys: np.ndarray
    yaws: np.ndarray     # (n,) unnormalized headings
    kappa: float
    direction: int


def iter_segment_samples(path: RSPath, start: Pose2D, step: float) -> Iterator[SegmentSamples]:
    """Sample each non-empty segment of `path` as arrays, one segment at a time.

    Segment i is split into n = max(1, ceil(length / step)) equal steps and
    yields the n poses after each step; the segment's first pose is the
    previous segment's last one (or `start`).  The prefix sums add the same
    terms in the same order as chaining `move_along_arc`, so every value is
    bit-identical to that scalar recurrence.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    x, y, yaw = start.x, start.y, start.yaw
    for seg in path.segments:
        if seg.length <= 0.0:
            continue
        kappa = segment_curvature(seg, path.turn_radius)
        n = max(1, math.ceil(seg.length / step))
        ds = seg.length / n * seg.direction
        if kappa == 0.0:
            yaws = np.full(n, yaw)
            xs = np.cumsum(np.concatenate(([x], np.full(n, ds * math.cos(yaw)))))[1:]
            ys = np.cumsum(np.concatenate(([y], np.full(n, ds * math.sin(yaw)))))[1:]
        else:
            chain = np.cumsum(np.concatenate(([yaw], np.full(n, ds * kappa))))
            sin, cos = np.sin(chain), np.cos(chain)
            yaws = chain[1:]
            xs = np.cumsum(np.concatenate(([x], (sin[1:] - sin[:-1]) / kappa)))[1:]
            ys = np.cumsum(np.concatenate(([y], -(cos[1:] - cos[:-1]) / kappa)))[1:]
        yield SegmentSamples(xs, ys, yaws, kappa, seg.direction)
        x, y, yaw = float(xs[-1]), float(ys[-1]), float(yaws[-1])


def sample_path(path: RSPath, start: Pose2D, step: float) -> List[Tuple[Pose2D, float, int]]:
    """Sample (pose, curvature, direction) along `path` starting at `start`.

    Samples are spaced at most `step` apart in arc length; segment boundaries
    are always emitted, and the final sample lands on the path's end pose.
    A zero-length path yields the single sample (start, 0.0, FORWARD).
    """
    samples: List[Tuple[Pose2D, float, int]] = [(start, 0.0, FORWARD)]
    for seg in iter_segment_samples(path, start, step):
        samples.extend((Pose2D(x, y, yaw), seg.kappa, seg.direction)
                       for x, y, yaw in zip(seg.xs.tolist(), seg.ys.tolist(), seg.yaws.tolist()))
    return samples


def path_end_pose(path: RSPath, start: Pose2D) -> Pose2D:
    """End pose of `path` driven from `start` (exact arc composition)."""
    x, y, yaw = start.x, start.y, start.yaw
    for seg in path.segments:
        kappa = segment_curvature(seg, path.turn_radius)
        x, y, yaw = move_along_arc(x, y, yaw, kappa, seg.length * seg.direction)
    return Pose2D(x, y, yaw)
