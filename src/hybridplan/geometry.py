"""Poses, angle arithmetic and exact motion along an arc.

Everything in here is a pure function over immutable values; the rest of
the package builds on these primitives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

TWO_PI = 2.0 * math.pi


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
