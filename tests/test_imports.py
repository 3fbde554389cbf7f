"""Package layout rules checked on the source, not just written down."""
from __future__ import annotations

import ast
from pathlib import Path

import hybridplan

PACKAGE_DIR = Path(hybridplan.__file__).resolve().parent


def private_cross_module_imports(source: str, module: str):
    """`from .<other> import _<name>` statements of one package module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("hybridplan"):
            continue
        target = (node.module or "").rsplit(".", 1)[-1]
        if target == module:
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append(f"{module}.py:{node.lineno} imports {target}.{alias.name}")
    return found


def test_rule_catches_private_imports():
    source = ("from .planner import _Node\n"
              "from hybridplan.grid import _CHAR_TO_CELL as table\n"
              "from .grid import OccupancyGrid\n"
              "from __future__ import annotations\n")
    assert private_cross_module_imports(source, "mission") == [
        "mission.py:1 imports planner._Node",
        "mission.py:2 imports grid._CHAR_TO_CELL",
    ]


def test_no_private_cross_module_imports():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        found += private_cross_module_imports(path.read_text(encoding="utf-8"), path.stem)
    assert found == []


ORACLES = Path(__file__).resolve().parent / "oracles.py"


def test_rule_catches_oracle_reusing_planner_helpers():
    source = ("from hybridplan.planner import (EXTENDED, PathBuilder, _extension_cost,\n"
              "                                _extension_free, geometric_extension)\n")
    assert private_cross_module_imports(source, "oracles") == [
        "oracles.py:1 imports planner._extension_cost",
        "oracles.py:1 imports planner._extension_free",
    ]


def test_oracles_import_no_private_names():
    """An oracle that reuses the code under test only compares it with itself."""
    assert private_cross_module_imports(ORACLES.read_text(encoding="utf-8"), "oracles") == []
