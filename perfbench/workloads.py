"""The benchmark's workloads: which scenario specs each one runs, in which mode.

The program under test receives only the generated `ScenarioSpec`s; the
workload seed never reaches it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np

from hybridplan import cli
from hybridplan.geometry import Pose2D
from hybridplan.grid import FREE, OCCUPIED, OccupancyGrid
from hybridplan.simulate import ScenarioSpec

GRID_RES = 0.15625        # [m] map resolution of the bundled scenarios
CLUTTER_SIZE = 26.0       # [m] side of a clutter_short map
CLUTTER_WALL = 0.5        # [m] border wall thickness
CLUTTER_BOXES = 12
BOX_CLEARANCE = 3.5       # [m] minimum box distance from start and goal
MIN_START_GOAL = 8.0      # [m] minimum start-goal distance
CLUTTER_MODES = ("guided", "guided+extended")
SCENE_SEED = 1            # clutter_short scene set with stored references

# workload -> (bundled scenario, mode, seconds of run length per mission).
# The mission count follows from the run length alone, never from outcomes.
BUNDLED = {
    "explore_unknown": ("unknown_large", "guided", 45.0),
    "known_yard": ("known_large", "standard", 3.0),
}
CLUTTER_MISSION_S = 0.6
NAMES = ("explore_unknown", "known_yard", "clutter_short")


@dataclass(frozen=True)
class Mission:
    mission_id: str       # stable name, the key of the stored reference
    mode: str             # cli.MODES key
    spec: ScenarioSpec


def _bordered(size: float) -> OccupancyGrid:
    n = int(round(size / GRID_RES))
    g = OccupancyGrid.filled(n, n, GRID_RES, FREE)
    w = CLUTTER_WALL
    g.set_box(0, 0, size, w, OCCUPIED)
    g.set_box(0, size - w, size, size, OCCUPIED)
    g.set_box(0, 0, w, size, OCCUPIED)
    g.set_box(size - w, 0, size, size, OCCUPIED)
    return g


def _box_distance(x0: float, y0: float, x1: float, y1: float, p: Pose2D) -> float:
    dx = max(x0 - p.x, 0.0, p.x - x1)
    dy = max(y0 - p.y, 0.0, p.y - y1)
    return math.hypot(dx, dy)


def _straight_line_blocked(g: OccupancyGrid, start: Pose2D, goal: Pose2D) -> bool:
    """True when the start-goal segment, sampled every 0.1 m, hits an obstacle."""
    n = int(start.distance_to(goal) / 0.1) + 1
    xs = np.linspace(start.x, goal.x, n)
    ys = np.linspace(start.y, goal.y, n)
    ix = np.clip((xs / g.resolution).astype(int), 0, g.width_cells - 1)
    iy = np.clip((ys / g.resolution).astype(int), 0, g.height_cells - 1)
    return bool((g.cells[iy, ix] == OCCUPIED).any())


def clutter_scene(rng: np.random.Generator) -> ScenarioSpec:
    """One detour-forcing 26 m x 26 m known map with 12 boxes.

    Draws a start/goal pair at least 8 m apart, then boxes, dropping any box
    closer than 3.5 m to the start or the goal, until 12 are placed.  A scene
    whose straight start-goal line stays free is drawn again.  The filter
    looks only at the map, never at a planner outcome.
    """
    while True:
        start = Pose2D(rng.uniform(4, 22), rng.uniform(4, 22), rng.uniform(-math.pi, math.pi))
        goal = Pose2D(rng.uniform(4, 22), rng.uniform(4, 22), rng.uniform(-math.pi, math.pi))
        if start.distance_to(goal) < MIN_START_GOAL:
            continue
        g = _bordered(CLUTTER_SIZE)
        placed = 0
        while placed < CLUTTER_BOXES:
            x, y = rng.uniform(3, 20, 2)
            x1, y1 = x + rng.uniform(1.0, 3.2), y + rng.uniform(1.0, 3.2)
            if min(_box_distance(x, y, x1, y1, start),
                   _box_distance(x, y, x1, y1, goal)) < BOX_CLEARANCE:
                continue
            g.set_box(x, y, x1, y1, OCCUPIED)
            placed += 1
        if _straight_line_blocked(g, start, goal):
            return ScenarioSpec(truth_map=g, start=start, goal=goal,
                                known_env=True, max_sim_steps=600)


def build(workload: str, seconds: float, seed: int, scene_seed: int = SCENE_SEED) -> List[Mission]:
    """The missions of one run, in the order they are driven.

    Each mission gets its own freshly loaded or generated spec, as a `plan
    run` process would.  clutter_short draws its scenes from `scene_seed`;
    `seed` sets the order in which they are driven.
    """
    if workload in BUNDLED:
        name, mode, mission_s = BUNDLED[workload]
        return [Mission(f"{name}/{mode}", mode,
                        cli.resolve_scenario(f"bundled:{name}", Path(".")))
                for _ in range(max(1, int(seconds / mission_s)))]
    if workload != "clutter_short":
        raise ValueError(f"unknown workload {workload!r}")
    n = max(2, int(seconds / CLUTTER_MISSION_S))
    rng = np.random.default_rng(scene_seed)
    missions = []
    for i in range(n):
        mode = CLUTTER_MODES[i % 2]
        missions.append(Mission(f"clutter-{scene_seed}-{i:03d}/{mode}", mode, clutter_scene(rng)))
    order = np.random.default_rng(seed).permutation(n)
    return [missions[i] for i in order]
