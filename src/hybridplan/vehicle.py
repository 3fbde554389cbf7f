"""Vehicle kinematics, footprint disks and the collision checker.

The pose reference point is the rear-axle center: the bicycle model pivots
about it and the in-place rotation of the second system model is a pure yaw
change there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

import numpy as np

from .grid import OccupancyGrid

# Distance-field lookups are quantized to cell centers; pad every disk
# radius by half a cell diagonal so the checks stay conservative.
def cell_pad(resolution: float) -> float:
    return resolution * math.sqrt(2.0) / 2.0


@dataclass(frozen=True)
class VehicleSpec:
    length: float = 4.0
    width: float = 2.0
    wheelbase: float = 2.5
    rear_overhang: float = 1.5       # rear axle to rear bumper
    max_steer: float = math.radians(31.51)
    n_disks: int = 3

    def __post_init__(self) -> None:
        # written as not (0 < v < inf) so that NaN fails too
        for name in ("length", "width"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not (0.0 < self.wheelbase <= self.length):
            raise ValueError("need 0 < wheelbase <= length")
        if not (0.0 <= self.rear_overhang < self.length):
            raise ValueError("need 0 <= rear_overhang < length")
        if not (0.0 < self.max_steer < math.pi / 2.0):
            raise ValueError("max_steer must be in (0, pi/2)")
        if self.n_disks < 1:
            raise ValueError("n_disks must be >= 1")

    @property
    def min_turn_radius(self) -> float:
        return self.wheelbase / math.tan(self.max_steer)

    @cached_property
    def disks(self) -> DiskSet:
        """The footprint's cover by `n_disks` equal disks on the axis; built once,
        as the spec is frozen."""
        d = self.length / (2.0 * self.n_disks)
        centers = tuple(-self.rear_overhang + d + 2.0 * d * i for i in range(self.n_disks))
        return DiskSet(centers=centers, radius=math.hypot(d, self.width / 2.0))

    def footprint_corners(self, x: np.ndarray, y: np.ndarray, yaw: np.ndarray) -> np.ndarray:
        """The four rectangle corners of rear-axle anchored poses, shape
        (2, 4, n): x and y, then rear right, rear left, front right, front left."""
        c, s = np.cos(yaw), np.sin(yaw)
        corners = [(lon, lat) for lon in (-self.rear_overhang, self.length - self.rear_overhang)
                   for lat in (-self.width / 2.0, self.width / 2.0)]
        return np.array(([x + lon * c - lat * s for lon, lat in corners],
                         [y + lon * s + lat * c for lon, lat in corners]))


@dataclass(frozen=True)
class DiskSet:
    """Footprint cover by disks centered on the longitudinal axis."""

    centers: Tuple[float, ...]   # offsets along the axis from the rear-axle point
    radius: float

    @property
    def swept_radius(self) -> float:
        """Radius of the circle containing the footprint for any yaw."""
        return max(abs(c) for c in self.centers) + self.radius


def checker_thresholds(disks: DiskSet, resolution: float,
                       reach: float) -> Tuple[Tuple[str, float], ...]:
    """(test, threshold) of a `CollisionChecker`'s disk mask (`<`), swept
    circle (`<`) and `expansion_blocked`'s clear test at `reach` (`>=`), in
    field meters."""
    pad = cell_pad(resolution)
    disk = disks.radius + pad
    # clear: the field's 1-Lipschitz slack between two cells' centres, beyond
    # the distance of the points in them; 1e-6 m covers float rounding
    return (("disk mask", disk), ("rotation_blocked", disks.swept_radius + pad),
            ("expansion_blocked", disk + 2.0 * pad + 1e-6 + reach))


class CollisionChecker:
    """Footprint disk tests against a grid's obstacle distance field.

    Cells outside the grid count as colliding.  The disk test reads the
    grid's memoized mask of the cells whose field reads below the disk
    threshold (`OccupancyGrid.within` just under it), which the grid keeps
    up to date over its writes.  The field is saturated at the grid's cap;
    a test whose threshold lies above it raises ValueError
    (`OccupancyGrid.distance_field`).
    """

    def __init__(self, grid: OccupancyGrid, disks: DiskSet, reach: float = 0.0) -> None:
        thresholds = checker_thresholds(disks, grid.resolution, reach)
        (_, self.threshold), (_, self.swept_threshold), (_, self._clear_at) = thresholds
        self.reach, self.disks = reach, disks
        self.field = grid.distance_field(thresholds)
        self.offsets = np.array(disks.centers)
        # field < threshold, as field <= the float just below it
        self.blocked = grid.within(float(np.nextafter(self.threshold, -np.inf)))

    def pose_blocked(self, x: float, y: float, yaw: float) -> bool:
        return bool(self.batch_blocked(np.array([[x], [y]]),
                                       np.array([[math.cos(yaw)], [math.sin(yaw)]]))[0])

    def rotation_blocked(self, x: float, y: float) -> bool:
        """Conservative swept check: the circle around the rear-axle point
        that contains the footprint at every yaw must be obstacle free."""
        return self.field.at(x, y) < self.swept_threshold

    def expansion_blocked(self, x: float, y: float, c: float, s: float,
                          samples: np.ndarray) -> List[bool]:
        """Per drive primitive of the node (x, y) with yaw cosine c and sine s: is a
        disk at one of its sub-samples blocked?  The one clear test: [] when the reach
        box lies on the grid (its 1e-6 m covers rounding) and the field at (x, y)
        proves every disk centred within `reach` free, as the field (distances
        between cell centres) drops by at most the distance of two points plus two
        half cell diagonals between their cells.

        `samples` is (dx, dy, cos dyaw, sin dyaw) of every sub-sample, (4, P, K), a
        pose being x + dx*c + dy*(-s) and so on, summed in that order.  With the
        reach box on the grid the disk mask is read with no off-grid test."""
        m = self.reach + 1e-6
        (ix0, iy0), (ix1, iy1) = self.field.cell_of(x - m, y - m), self.field.cell_of(x + m, y + m)
        h, w = self.blocked.shape
        on_grid = 0 <= ix0 and 0 <= iy0 and ix1 < w and iy1 < h
        if on_grid and self.field.at(x, y) >= self._clear_at:
            return []
        turn, normal, at = np.array([c, s, -s, c, x, y]).reshape(3, 2, 1, 1, 1)
        pose = samples[0::2] * turn         # x and y of (position, heading)
        pose[:, :1] += at
        pose += samples[1::2] * normal
        if not on_grid:                     # an off-grid centre is blocked
            return self.batch_blocked(pose[:, 0], pose[:, 1]).any(axis=1).tolist()
        centres = self.offsets[:, None, None] * pose[:, 1:] + pose[:, :1]   # (2, disks, P, K)
        cells = np.floor(centres / self.field.resolution)
        index = cells[1] * self.blocked.shape[1] + cells[0]     # row-major, exact in float64
        return self.blocked.take(index.astype(np.intp)).any(axis=(0, 2)).tolist()

    def batch_blocked(self, xy: np.ndarray, heading: np.ndarray) -> np.ndarray:
        """Per-pose disk test; True where blocked.

        `xy` stacks the poses' x and y, `heading` the cosine and sine of their
        yaws, on a leading axis of 2; the rest of the two shapes, of one rank,
        broadcast.  The disks take axis 1, so each inner loop runs over poses.
        """
        offsets = self.offsets.reshape((-1,) + (1,) * (xy.ndim - 1))
        centres = xy[:, None] + offsets * heading[:, None]
        flat, off = self.field.flat_cells(centres)
        # an off-grid point is blocked, whatever cell its wrapped index reads
        hit = self.blocked.take(flat, mode="wrap") | off
        return hit.reshape(centres.shape[1:]).any(axis=0)
