from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hybridplan.grid import FREE, OCCUPIED, OccupancyGrid

GRID_RES = 0.15625


def bordered_grid(width_m: float, height_m: float, res: float = GRID_RES,
                  wall: float = 0.5) -> OccupancyGrid:
    g = OccupancyGrid.filled(int(round(width_m / res)), int(round(height_m / res)),
                             res, FREE)
    g.set_box(0, 0, width_m, wall, OCCUPIED)
    g.set_box(0, height_m - wall, width_m, height_m, OCCUPIED)
    g.set_box(0, 0, wall, height_m, OCCUPIED)
    g.set_box(width_m - wall, 0, width_m, height_m, OCCUPIED)
    return g


def clutter_scene(rng) -> OccupancyGrid:
    """A bordered 26 m x 26 m map with 12 random boxes (the criterion 7 scenes)."""
    g = bordered_grid(26, 26)
    for _ in range(12):
        x, y = rng.uniform(3, 20, 2)
        g.set_box(x, y, x + rng.uniform(1.0, 3.2), y + rng.uniform(1.0, 3.2), OCCUPIED)
    return g


def angles_close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi) <= tol


def pose_close(p, q, pos_tol: float = 1e-6, yaw_tol: float = 1e-6) -> bool:
    return (math.hypot(p.x - q.x, p.y - q.y) <= pos_tol
            and angles_close(p.yaw, q.yaw, yaw_tol))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
