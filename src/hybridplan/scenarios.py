"""Bundled benchmark scenarios.

The builders construct the ground-truth grids programmatically; the same
geometry is shipped as map/scenario files in the package data directory so
the CLI can run them by name (scenario path "bundled:<name>").
"""
from __future__ import annotations

import json
import math
from importlib import resources
from pathlib import Path
from typing import Callable, Dict

from .geometry import Pose2D
from .grid import FREE, OCCUPIED, OccupancyGrid, load_map
from .simulate import ScenarioSpec

GRID_RES = 0.15625   # [m] map resolution


def _empty(width_m: float, height_m: float, value: int = OCCUPIED) -> OccupancyGrid:
    return OccupancyGrid.filled(int(round(width_m / GRID_RES)),
                                int(round(height_m / GRID_RES)), GRID_RES, value)


def _bordered(width_m: float, height_m: float, wall: float = 0.5) -> OccupancyGrid:
    g = _empty(width_m, height_m, FREE)
    g.set_box(0, 0, width_m, wall, OCCUPIED)
    g.set_box(0, height_m - wall, width_m, height_m, OCCUPIED)
    g.set_box(0, 0, wall, height_m, OCCUPIED)
    g.set_box(width_m - wall, 0, width_m, height_m, OCCUPIED)
    return g


def plate_corridor(plate_diameter: float) -> ScenarioSpec:
    """Narrow corridor with a circular turning plate at its middle.

    The goal sits at the far end with opposite orientation, so the vehicle
    must turn around on the plate: multi-point turning needs generous space,
    rotating about the rear axle much less.
    """
    width, height = 44.0, 14.0
    corridor_halfwidth = 1.8
    cy = height / 2.0
    g = _empty(width, height, OCCUPIED)
    g.set_box(1.0, cy - corridor_halfwidth, width - 1.0, cy + corridor_halfwidth, FREE)
    g.set_disk(width / 2.0, cy, plate_diameter / 2.0, FREE)
    return ScenarioSpec(
        truth_map=g,
        start=Pose2D(4.0, cy, 0.0),
        goal=Pose2D(40.0, cy, math.pi),
        known_env=True,
        max_sim_steps=1500,
    )


def plate_corridor_84() -> ScenarioSpec:
    return plate_corridor(8.4)


def plate_corridor_67() -> ScenarioSpec:
    return plate_corridor(6.7)


def _large_truth() -> OccupancyGrid:
    """Open 140 x 60 m yard split by a long wall, scattered with pillars.

    The route runs east below the wall, around its east end and back west,
    roughly 220 m, ending in a bay that must be backed into through the
    pillar scatter in front of it.
    """
    width, height = 160.0, 60.0
    g = _bordered(width, height)
    g.set_box(0.5, 29.0, 126.0, 31.0, OCCUPIED)

    # teaser gaps on the route lines: open for the coarse 2D route under a
    # small inflation radius, far too narrow for the vehicle footprint
    for tx in (58.0, 78.0, 98.0):
        g.set_box(tx - 0.6, 7.7, tx + 0.6, 8.9, OCCUPIED)
        g.set_box(tx - 0.6, 11.1, tx + 0.6, 12.3, OCCUPIED)
    for tx in (60.0, 80.0, 100.0):
        g.set_box(tx - 0.6, 47.7, tx + 0.6, 48.9, OCCUPIED)
        g.set_box(tx - 0.6, 51.1, tx + 0.6, 52.3, OCCUPIED)

    def keep_clear(px: float, py: float) -> bool:
        for qx, qy in ((40.0, 10.0), (10.0, 50.0)):     # start / goal areas
            if abs(px - qx) < 9.0 and abs(py - qy) < 9.0:
                return False
        if px > 110.0 and 18.0 < py < 42.0:              # wall-end passage
            return False
        if px < 100.0 and py > 38.0:                     # open apron before the bay
            return False
        return True

    # two pillar rows per yard, spaced so gaps never pinch below ~3.5 m
    k = 0
    for row, py0 in enumerate((6.0, 17.0, 41.0, 52.0)):
        for col in range(11):
            px = 9.0 + col * 14.5 + (5.0 if row % 2 else 0.0)
            # deterministic jitter, no RNG involved
            jx = 2.6 * math.sin(3.7 * k + 1.3)
            jy = 1.2 * math.sin(2.9 * k + 4.1)
            k += 1
            cx, cy = px + jx, py0 + jy
            size = 2.0 + 1.0 * ((k * 7) % 3) / 2.0
            if not keep_clear(cx, cy):
                continue
            g.set_box(cx - size / 2.0, cy - size / 2.0,
                      cx + size / 2.0, cy + size / 2.0, OCCUPIED)
    return g


def known_large() -> ScenarioSpec:
    return ScenarioSpec(
        truth_map=_large_truth(),
        start=Pose2D(40.0, 10.0, 0.0),
        goal=Pose2D(10.0, 50.0, math.pi),
        known_env=True,
        max_sim_steps=3000,
    )


def unknown_large() -> ScenarioSpec:
    spec = known_large()
    return ScenarioSpec(truth_map=spec.truth_map, start=spec.start, goal=spec.goal,
                        known_env=False, sensor_range=70.0, n_rays=1440,
                        drive_step=spec.drive_step, max_sim_steps=3000)


def reveal_divergence() -> ScenarioSpec:
    """A wall across the preferred route, hidden beyond sensor range.

    Revealed while still more than s_coll ahead, it flips the 2D route to
    the other side and triggers exactly one divergence-caused replan.
    """
    width, height = 60.0, 30.0
    g = _bordered(width, height)
    g.set_box(38.0, 0.5, 39.5, 16.0, OCCUPIED)
    return ScenarioSpec(
        truth_map=g,
        start=Pose2D(5.0, 10.0, 0.0),
        goal=Pose2D(55.0, 10.0, 0.0),
        known_env=False,
        sensor_range=28.0,
        n_rays=1440,
        max_sim_steps=1200,
    )


def smoke_small() -> ScenarioSpec:
    """Tiny known map for fast CLI checks."""
    g = _bordered(30.0, 16.0)
    return ScenarioSpec(truth_map=g, start=Pose2D(4.0, 8.0, 0.0),
                        goal=Pose2D(25.0, 8.0, 0.0), known_env=True,
                        max_sim_steps=400)


BUILDERS: Dict[str, Callable[[], ScenarioSpec]] = {
    "plate_corridor_84": plate_corridor_84,
    "plate_corridor_67": plate_corridor_67,
    "known_large": known_large,
    "unknown_large": unknown_large,
    "reveal_divergence": reveal_divergence,
    "smoke_small": smoke_small,
}


def load_scenario(path) -> ScenarioSpec:
    path = Path(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be an object")
    required = {"map", "start", "goal", "known_env", "sensor_range",
                "n_rays", "drive_step", "max_sim_steps"}
    missing = required - data.keys()
    if missing:
        raise ValueError(f"{path}: scenario missing fields {sorted(missing)}")
    if not isinstance(data["known_env"], bool):
        raise ValueError(f"{path}: known_env must be true or false, got {data['known_env']!r}")
    max_sim_steps = _number(data, "max_sim_steps", int, path)
    if max_sim_steps < 1:
        raise ValueError(f"{path}: max_sim_steps must be at least 1, got {max_sim_steps}")
    if not isinstance(data["map"], str):
        raise ValueError(f"{path}: map must be a file name, got {data['map']!r}")
    truth = load_map(path.parent / data["map"])
    return ScenarioSpec(
        truth_map=truth,
        start=_pose_field(data, "start", path),
        goal=_pose_field(data, "goal", path),
        known_env=data["known_env"],
        sensor_range=_number(data, "sensor_range", float, path),
        n_rays=_number(data, "n_rays", int, path),
        drive_step=_number(data, "drive_step", float, path),
        max_sim_steps=max_sim_steps,
    )


def _number(data: dict, key: str, cast: Callable, path: Path):
    try:
        return cast(data[key])
    except (TypeError, ValueError):
        raise ValueError(f"{path}: {key} must be a number, got {data[key]!r}") from None


def _pose_field(data: dict, key: str, path: Path) -> Pose2D:
    value = data[key]
    if not (isinstance(value, list) and len(value) == 3
            and all(isinstance(v, (int, float)) for v in value)):
        raise ValueError(f"{path}: {key} must be 3 numbers [x, y, yaw]")
    return Pose2D(*[float(v) for v in value])


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a scenario shipped in the package data directory."""
    root = resources.files("hybridplan").joinpath("data")
    candidate = Path(str(root.joinpath(f"{name}.scenario")))
    if not candidate.exists():
        known = sorted(BUILDERS)
        raise FileNotFoundError(f"no bundled scenario {name!r}; available: {known}")
    return candidate
