"""Package layout rules checked on the source, not just written down."""
from __future__ import annotations

import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import hybridplan
from hybridplan import cli, planner, simulate
from hybridplan.geometry import Pose2D
from hybridplan.grid import UNKNOWN, OccupancyGrid, distance_transform
from hybridplan.planner import PlannerConfig
from hybridplan.simulate import ScenarioSpec
from hybridplan.vehicle import VehicleSpec

from conftest import bordered_grid

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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def local_names(func) -> set:
    """Names a function binds itself: its parameters and the names it
    assigns, leaving out the bodies of functions nested in it."""
    args = func.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
             + [args.vararg, args.kwarg] if a is not None}
    todo = list(func.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif not isinstance(node, FUNCTIONS):
            todo.extend(ast.iter_child_nodes(node))
    return names


def global_reads(node, shadowed=frozenset()):
    """Names read under node, except reads inside a function that binds
    the name itself; a function's decorators, defaults and annotations are
    read in the enclosing scope."""
    if isinstance(node, FUNCTIONS):
        for child in [*node.decorator_list, node.args, node.returns]:
            if child is not None:
                yield from global_reads(child, shadowed)
        inner = shadowed | local_names(node)
        for child in node.body:
            yield from global_reads(child, inner)
        return
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in shadowed:
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from global_reads(child, shadowed)


def unused_imports(source: str, module: str):
    """Names that one package module imports and never uses.  A name counts
    as used where the code reads it (not a function's own parameter or
    variable of that name), where an annotation string names it, or where
    `__all__` lists it."""
    tree = ast.parse(source)
    imported = []
    used = set(global_reads(tree))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                                if isinstance(n, ast.Name))
    return [f"{module}.py:{line} imports {name} and never uses it"
            for line, name in imported if name not in used]


def test_rule_catches_unused_imports():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import os.path\n"
              "from typing import Optional, Tuple\n"
              "from .geometry import Pose2D\n"
              "from .grid import Raster as R, load_map\n"
              "__all__ = [\"load_map\"]\n"
              "from dataclasses import dataclass, field\n"
              "def f(x: \"Optional[int]\") -> Tuple[int, int]:\n"
              "    return math.floor(x), 0\n"
              "@dataclass\n"
              "class Report:\n"
              "    def score(self, field):\n"
              "        return field\n"
              "def stats():\n"
              "    field = 1.0\n"
              "    return field\n")
    assert unused_imports(source, "grid") == [
        "grid.py:3 imports os and never uses it",
        "grid.py:5 imports Pose2D and never uses it",
        "grid.py:6 imports R and never uses it",
        "grid.py:8 imports field and never uses it",
    ]


def test_no_unused_imports():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        found += unused_imports(path.read_text(encoding="utf-8"), path.stem)
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


PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


def load_probe():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
    probe = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True          # leave the benchmark's directory as it is
    try:
        spec.loader.exec_module(probe)
    finally:
        sys.dont_write_bytecode = dont_write
    return probe


def test_perfbench_call_sites_resolve(monkeypatch):
    """perfbench's traced run wraps the module attributes in `probe.SITES` and
    reads the EDT's second positional argument as `unknown_as_occupied`; its
    setup loads scenarios with `cli.resolve_scenario`, which must call the
    wrapped `cli.load_scenario`, and builds `cli.RunConfig` from a scenario
    and a mode.  A refactor that moves a site or one of these signatures fails
    here, not only in the benchmark's own test."""
    probe = load_probe()
    for sites in probe.SITES.values():
        for site in sites:
            probe.resolve(site)
    previous = inspect.signature(distance_transform).parameters["previous"]
    assert previous.kind is inspect.Parameter.KEYWORD_ONLY
    assert OccupancyGrid.filled(2, 2, 1.0, UNKNOWN).occupied_mask(True).all()
    loads = []
    load_scenario = cli.load_scenario
    monkeypatch.setattr(cli, "load_scenario", lambda path: loads.append(path) or load_scenario(path))
    assert isinstance(cli.resolve_scenario("bundled:smoke_small", Path(".")), ScenarioSpec)
    assert len(loads) == 1
    cfg = cli.RunConfig(scenario="x", mode="standard")
    assert cfg.output_dir == "out" and cfg.planner == PlannerConfig()


def count_calls(monkeypatch, probe, sites) -> dict:
    """Wrap each `probe.SITES` call site with a counter; site -> calls so far."""
    calls = {}
    for site in sites:
        module, attr = probe.resolve(site)
        inner = getattr(module, attr)

        def counted(*args, _site=site, _inner=inner, **kwargs):
            calls[_site] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(module, attr, counted)
        calls[site] = 0
    return calls


def test_perfbench_planner_sites_are_called(monkeypatch):
    """A site that resolves but is never called trips the traced run's layer
    guard (`correct: false`): one `plan` whose heuristic takes the
    Reeds-Shepp term and whose first analytic attempt succeeds must reach
    every planner-side site through its module attribute."""
    probe = load_probe()
    layers = ("planner.analytic_expansions", "reeds_shepp.rs_all_paths",
              "reeds_shepp.rs_path_length", "geometry.sample_path")
    calls = count_calls(monkeypatch, probe,
                        [site for layer in layers for site in probe.SITES[layer]])
    config = PlannerConfig()
    start, goal = Pose2D(10.0, 20.0, 0.0), Pose2D(20.0, 21.0, 0.3)
    assert goal.distance_to(start) <= config.rs_heuristic_radius
    planner.plan(bordered_grid(40.0, 40.0), start, goal, VehicleSpec(), config)
    assert calls and all(calls.values()), calls


def test_perfbench_run_sites_are_called(monkeypatch, tmp_path):
    """perfbench's `drive` runs each mission through `cli.execute_run`,
    unpacks `report, events` and reads the counters below; its traced run
    wraps the `cli` sites and every `simulate` site.  One guided run on a
    small unknown map must call each of those sites, return what `drive`
    reads, and write the run's own file texts."""
    probe = load_probe()
    sites = ["cli.run_scenario", "cli.raytrace_reveal", "cli.render_run"] + [
        site for layer in probe.SITES.values() for site in layer
        if site.startswith("simulate.")]
    calls = count_calls(monkeypatch, probe, sites)
    spec = ScenarioSpec(bordered_grid(24.0, 12.0), Pose2D(4.0, 6.0, 0.0), Pose2D(19.0, 6.0, 0.0),
                        known_env=False, sensor_range=6.0, n_rays=360, max_sim_steps=200)
    cfg = cli.RunConfig(scenario="x", mode="guided")
    report, events = cli.execute_run(cfg, spec, tmp_path, with_timing=False)
    assert calls and all(calls.values()), calls
    assert report.reached and report.n_planner_calls == len(events) > 0
    for attr in ("cumulative_nodes", "t_cum", "length", "kappa_dot_rms", "p_max"):
        assert isinstance(getattr(report, attr), (int, float)), attr
    assert all(isinstance(e.step, int) and isinstance(e.seconds, float) and e.cause
               for e in events)
    texts = simulate.run_scenario(spec, cfg.mission, cfg.planner, cli.MODES[cfg.mode],
                                  cfg.vehicle).texts(False)
    assert {name: (tmp_path / name).read_text(encoding="utf-8") for name in texts} == texts


def test_perfbench_selftest_passes():
    """The benchmark's own test exits 0: its call sites resolve, its probe
    restores what it wraps, its metric names match BENCHMARK.json, and a
    traced clutter_short run reproduces the output digests and counters
    stored in `perfbench/reference.json`.  It writes only under
    `perfbench/out/`, and no bytecode."""
    root = PROBE.parents[1]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, str(PROBE.with_name("selftest.py"))], cwd=root,
                          env=env, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0 and "selftest: OK" in done.stdout, done.stdout + done.stderr


def uncalled_public_names(sources, exported, readers=()):
    """Public module-level functions, classes and UPPER_CASE constants of
    `sources` (module name -> source), and the public methods and properties
    of their classes (as `Class.name`), that no source of `sources` or
    `readers` refers to apart from defining them, and that `exported` does
    not name."""
    defined, used = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
            else:
                names = []
            if isinstance(node, ast.ClassDef):
                names += [f"{node.name}.{item.name}" for item in node.body
                          if isinstance(item, FUNCTIONS)]
            defined += [(module, name) for name in names
                        if not name.rsplit(".", 1)[-1].startswith("_")]
    for source in [*sources.values(), *readers]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{module}.{name}" for module, name in defined
            if name.rsplit(".", 1)[-1] not in used and name not in exported]


def test_rule_catches_uncalled_public_names():
    sources = {"a": "def used():\n    pass\n\ndef orphan():\n    pass\n\nclass Shown:\n    pass\n",
               "b": "from .a import used\n\ndef caller():\n    return used()\n"}
    assert uncalled_public_names(sources, {"caller", "Shown"}) == ["a.orphan"]


def test_rule_catches_uncalled_public_methods():
    """A method or property counts as read wherever an attribute of its name is,
    in the package or in a reader such as the benchmark; private and dunder
    methods, and exempted ones, are left out."""
    sources = {"a": ("class Grid:\n"
                     "    def __init__(self):\n        self.n = 0\n"
                     "    def write(self):\n        return self._flush()\n"
                     "    def _flush(self):\n        pass\n"
                     "    @property\n    def size(self):\n        return self.n\n"
                     "    def timed(self):\n        pass\n"
                     "    def orphan(self):\n        pass\n"
                     "    def for_tests(self):\n        pass\n"
                     "\ndef caller(g):\n    return g.write(), g.size\n")}
    readers = ["def bench(g):\n    return g.timed()\n"]
    assert uncalled_public_names(sources, {"caller", "Grid", "Grid.for_tests"}, readers) == [
        "a.Grid.orphan"]
    assert uncalled_public_names(sources, {"caller", "Grid"}) == [
        "a.Grid.timed", "a.Grid.orphan", "a.Grid.for_tests"]


def test_rule_catches_unread_public_constants():
    sources = {"a": "STEP = 0.5\nLEFT_OVER = 0.625\nLIMIT: int = 3\n_PRIVATE = 2\n",
               "b": "from .a import STEP\n\ndef caller():\n    return STEP\n"}
    assert uncalled_public_names(sources, {"caller"}) == ["a.LEFT_OVER", "a.LIMIT"]


# the tests' write of any cell index; the package writes through set_box and reveals
TEST_ONLY = {"OccupancyGrid.set_cells"}


def test_every_public_name_has_a_caller_or_is_exported():
    """Every public name of the package, its classes' methods and properties
    included, is read in the package or the benchmark, or is exported; the
    TEST_ONLY names are exactly the ones left, so an exemption whose name
    gains a reader there is stale."""
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE_DIR.glob("*.py"))}
    readers = [path.read_text(encoding="utf-8") for path in sorted(PROBE.parent.glob("*.py"))]
    uncalled = uncalled_public_names(sources, set(hybridplan.__all__), readers)
    assert {name.split(".", 1)[1] for name in uncalled} == TEST_ONLY
