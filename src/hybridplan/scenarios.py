"""Scenario files: the loader and the bundled scenarios' paths.

The bundled scenarios are map/scenario files in the package data directory,
which the CLI runs by name (scenario path "bundled:<name>").
"""
from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import Callable

from .geometry import Pose2D
from .grid import load_map
from .simulate import ScenarioSpec


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
    map_path = path.parent / data["map"]
    if not map_path.is_file():
        raise ValueError(f"{path}: map file not found: {map_path}")
    truth = load_map(map_path)
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
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{path}: {key} must be a number, got {data[key]!r}") from None


def _pose_field(data: dict, key: str, path: Path) -> Pose2D:
    value = data[key]
    if not (isinstance(value, list) and len(value) == 3
            and all(isinstance(v, (int, float)) for v in value)):
        raise ValueError(f"{path}: {key} must be 3 numbers [x, y, yaw]")
    return Pose2D(*[float(v) for v in value])


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a scenario shipped in the package data directory."""
    root = Path(str(resources.files("hybridplan").joinpath("data")))
    candidate = root / f"{name}.scenario"
    if not candidate.exists():
        known = sorted(p.stem for p in root.glob("*.scenario"))
        raise FileNotFoundError(f"no bundled scenario {name!r}; available: {known}")
    return candidate
