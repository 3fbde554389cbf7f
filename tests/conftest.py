from __future__ import annotations

import math
import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hybridplan import heuristic
from hybridplan.grid import FREE, OCCUPIED, OccupancyGrid
from hybridplan.scenarios import bundled_scenario_path, load_scenario
from hybridplan.simulate import ScenarioSpec

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


def paint_disk(g: OccupancyGrid, cx: float, cy: float, radius: float, value: int) -> None:
    """Set the cells whose centers fall inside the world-space disk."""
    h, w = g.cells.shape
    xs = (np.arange(w) + 0.5) * g.resolution
    ys = (np.arange(h) + 0.5) * g.resolution
    g.set_cells((xs[None, :] - cx) ** 2 + (ys[:, None] - cy) ** 2 <= radius * radius, value)


def bundled(name: str) -> ScenarioSpec:
    """The bundled scenario `name`, loaded from its shipped files as the CLI does."""
    return load_scenario(bundled_scenario_path(name))


def traced_peak(run):
    """`run()` and the tracemalloc peak, in bytes, of the memory it allocated."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def clutter_scene(rng, border: bool = True) -> OccupancyGrid:
    """A bordered 26 m x 26 m map with 12 random boxes (the criterion 7 scenes);
    without `border` the same boxes stand on an open grid."""
    g = bordered_grid(26, 26) if border else OccupancyGrid.filled(
        int(round(26 / GRID_RES)), int(round(26 / GRID_RES)), GRID_RES, FREE)
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


@pytest.fixture
def floods(monkeypatch):
    """The route-map floods run during the test, in order: "full" for a
    `_repair_flood` from the empty map (`previous` None), "repair" for one
    from a previous map."""
    kinds = []
    repair = heuristic._repair_flood

    def counting(previous, *args):
        kinds.append("full" if previous is None else "repair")
        return repair(previous, *args)

    monkeypatch.setattr(heuristic, "_repair_flood", counting)
    return kinds


@contextmanager
def counted_writes():
    """Inside, every completed write to a grid (`OccupancyGrid._write`, the one
    write path) adds one to that grid's count in the Counter yielded."""
    counts = Counter()
    write = OccupancyGrid._write

    def counting(self, cells, values):
        write(self, cells, values)
        counts[self] += 1

    OccupancyGrid._write = counting
    try:
        yield counts
    finally:
        OccupancyGrid._write = write


NO_SUB_SAMPLES = np.zeros((4, 1, 0))


def clear_test(checker, x: float, y: float) -> bool:
    """The clear test of `CollisionChecker.expansion_blocked`: its [] for a node
    at (x, y) with one primitive of no sub-samples, which reads no cell and
    gives [False] when the test fails."""
    return checker.expansion_blocked(x, y, 1.0, 0.0, NO_SUB_SAMPLES) == []
