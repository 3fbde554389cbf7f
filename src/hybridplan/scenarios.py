"""Input files: the JSON field rule, the scenario loader and the bundled
scenarios' paths, which the CLI runs by name (scenario path "bundled:<name>").
"""
from __future__ import annotations

import dataclasses
import json
from importlib import resources
from pathlib import Path

from .geometry import Pose2D
from .grid import load_map
from .simulate import ScenarioSpec

_TYPE_NAMES = {float: "a number", int: "an integer", str: "a string",
               bool: "true or false", list: "a list"}


def _is_json_type(value, expected: type) -> bool:
    # a float field takes an int too; a bool is never a number
    return type(value) is expected or (expected is float and type(value) is int)


def field_types(cls) -> dict:
    """Field name -> type of each dataclass field that has a default."""
    return {f.name: type(f.default) for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING}


def check_fields(data, types: dict, where: str = "") -> dict:
    """`data`, checked to be a JSON object whose every key is in `types` and
    holds a value of that key's type; a dict in `types` types a nested object.
    `where` names `data` in messages and is empty at a file's top level."""
    if not isinstance(data, dict):
        raise ValueError(f"{where}: must be an object")
    for key, value in data.items():
        name = f"{where}.{key}" if where else key
        expected = types.get(key)
        if expected is None:
            raise ValueError(f"{name}: unknown field")
        if isinstance(expected, dict):
            check_fields(value, expected, name)
        elif not _is_json_type(value, expected):
            raise ValueError(f"{where + ': ' if where else ''}{key} must be "
                             f"{_TYPE_NAMES[expected]}, got {value!r}")
    return data


def read_json_object(path: Path) -> dict:
    """The JSON object in the UTF-8 file `path`; each failure names the file."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"{path}: cannot read ({exc.strerror})") from None
    except ValueError as exc:           # not UTF-8, or not JSON
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be an object")
    return data


_SCENARIO_TYPES = {"map": str, "start": list, "goal": list, **field_types(ScenarioSpec)}


def load_scenario(path) -> ScenarioSpec:
    path = Path(path)
    data = check_fields(read_json_object(path), _SCENARIO_TYPES)
    missing = _SCENARIO_TYPES.keys() - data.keys()
    if missing:
        raise ValueError(f"{path}: scenario missing fields {sorted(missing)}")
    if data["max_sim_steps"] < 1:
        raise ValueError(f"max_sim_steps must be at least 1, got {data['max_sim_steps']}")
    map_path = path.parent / data.pop("map")
    if not map_path.is_file():
        raise ValueError(f"{path}: map file not found: {map_path}")
    return ScenarioSpec(truth_map=load_map(map_path), start=_pose(data.pop("start"), "start"),
                        goal=_pose(data.pop("goal"), "goal"), **data)


def _pose(value: list, key: str) -> Pose2D:
    if not (len(value) == 3 and all(_is_json_type(v, float) for v in value)):
        raise ValueError(f"{key} must be 3 numbers [x, y, yaw]")
    return Pose2D(*[float(v) for v in value])


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a scenario shipped in the package data directory."""
    root = Path(str(resources.files("hybridplan").joinpath("data")))
    candidate = root / f"{name}.scenario"
    if not candidate.exists():
        known = sorted(p.stem for p in root.glob("*.scenario"))
        raise FileNotFoundError(f"no bundled scenario {name!r}; available: {known}")
    return candidate
