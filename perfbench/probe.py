"""Spans and counters recorded from outside the program.

Every layer is measured by replacing a function on the module attribute
where its caller looks it up (most layers are imported by name into
`mission`, `simulate`, `planner` and `cli`), and restoring it afterwards.
`SITES` is the one table of those call sites.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# layer -> "module.attribute" call sites it is reached through
SITES: Dict[str, Tuple[str, ...]] = {
    "grid.raytrace_reveal": ("simulate.raytrace_reveal",),
    "grid.distance_transform": ("grid.distance_transform",),
    "grid.voronoi_field": ("simulate.voronoi_field",),
    "heuristic.build_distance_map": ("mission.build_distance_map", "planner.build_distance_map"),
    "heuristic.extract_astar_path": ("mission.extract_astar_path",),
    "heuristic.detect_divergence": ("mission.detect_divergence",),
    "mission.mission_tick": ("simulate.mission_tick",),
    "mission.check_path_collision": ("mission.check_path_collision",),
    "planner.plan": ("mission.plan",),
    "planner.analytic_expansions": ("planner.analytic_expansions",),
    "reeds_shepp.rs_all_paths": ("planner.rs_all_paths",),
    "reeds_shepp.rs_path_length": ("planner.rs_path_length",),
    "geometry.sample_path": ("planner.sample_path",),
    "simulate.run_scenario": ("cli.run_scenario",),
    "simulate.score_run": ("simulate.score_run",),
    "simulate.proximity_stats": ("simulate.proximity_stats",),
    "simulate.kappa_dot_rms": ("simulate.kappa_dot_rms",),
    "cli.execute_run": ("cli.execute_run",),
    "cli.replay_reveal": ("cli.raytrace_reveal",),
    "svg.render_run": ("cli.render_run",),
    "scenarios.load_scenario": ("cli.load_scenario",),
}

# Layers wrapped in untimed (end-to-end) runs too: they give the tick clock
# and the exact per-mission counters, at a few calls per tick.
COUNTED = ("mission.mission_tick", "grid.raytrace_reveal",
           "grid.distance_transform", "planner.analytic_expansions")

REPLAN_CAUSES = ("initial", "collision", "divergence", "refresh", "goal_mode")

# (metric name, unit) reported by a traced run, in BENCHMARK.json order
PER_LAYER: List[Tuple[str, str]] = [
    ("grid.raytrace_reveal.self_s", "s"),
    ("grid.raytrace_reveal.calls", "count"),
    ("grid.raytrace_reveal.cells_revealed", "count"),
    ("grid.distance_transform.self_s", "s"),
    ("grid.distance_transform.calls", "count"),
    ("grid.distance_transform.useful_ratio", "ratio"),
    ("grid.voronoi_field.self_s", "s"),
    ("heuristic.build_distance_map.self_s", "s"),
    ("heuristic.build_distance_map.calls", "count"),
    ("heuristic.build_distance_map.useful_ratio", "ratio"),
    ("heuristic.extract_astar_path.self_s", "s"),
    ("heuristic.extract_astar_path.calls", "count"),
    ("heuristic.detect_divergence.self_s", "s"),
    ("mission.mission_tick.self_s", "s"),
    ("mission.mission_tick.calls", "count"),
    *[(f"mission.replans.{cause}", "count") for cause in REPLAN_CAUSES],
    ("mission.check_path_collision.self_s", "s"),
    ("mission.check_path_collision.calls", "count"),
    ("planner.plan.self_s", "s"),
    ("planner.plan.calls", "count"),
    ("planner.plan.nodes_expanded", "count"),
    ("planner.plan.nodes_created", "count"),
    ("planner.plan.us_per_node", "us"),
    ("planner.analytic_expansions.self_s", "s"),
    ("planner.analytic_expansions.calls", "count"),
    ("planner.analytic_expansions.success_ratio", "ratio"),
    ("planner.analytic_expansions.candidates_sampled", "count"),
    ("reeds_shepp.rs_all_paths.self_s", "s"),
    ("reeds_shepp.rs_all_paths.calls", "count"),
    ("reeds_shepp.rs_all_paths.candidates", "count"),
    ("reeds_shepp.rs_path_length.self_s", "s"),
    ("reeds_shepp.rs_path_length.calls", "count"),
    ("geometry.sample_path.self_s", "s"),
    ("geometry.sample_path.calls", "count"),
    ("geometry.sample_path.samples", "count"),
    ("simulate.run_scenario.self_s", "s"),
    ("simulate.score_run.self_s", "s"),
    ("simulate.proximity_stats.self_s", "s"),
    ("simulate.kappa_dot_rms.self_s", "s"),
    ("cli.execute_run.self_s", "s"),
    ("cli.replay_reveal.self_s", "s"),
    ("cli.replay_reveal.calls", "count"),
    ("svg.render_run.self_s", "s"),
    ("scenarios.load_scenario.self_s", "s"),
    ("trace.run_s", "s"),
    ("trace.spans", "count"),
]


class Layer:
    """Calls, self and inclusive time, and layer-specific counts."""

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.counts: Counter = Counter()


def _observe_reveal(probe, layer, args, kwargs, result):
    layer.counts["cells_revealed"] += result


def _observe_edt(probe, layer, args, kwargs, result):
    grid = args[0]
    unknown_as_occupied = args[1] if len(args) > 1 else kwargs.get("unknown_as_occupied", False)
    probe.note_change(layer, "edt", grid.occupied_mask(unknown_as_occupied))


def _observe_dmap(probe, layer, args, kwargs, result):
    probe.note_change(layer, "dmap", result.blocked)


def _observe_plan(probe, layer, args, kwargs, result):
    stats = result[1]
    layer.counts["nodes_expanded"] += stats.nodes_expanded
    layer.counts["nodes_created"] += stats.nodes_created


def _observe_analytic(probe, layer, args, kwargs, result):
    layer.counts["success"] += result is not None


def _observe_rs_all(probe, layer, args, kwargs, result):
    layer.counts["candidates"] += len(result)


def _observe_sample(probe, layer, args, kwargs, result):
    layer.counts["samples"] += len(result)
    if probe.current_layer() == "planner.analytic_expansions":
        probe.layers["planner.analytic_expansions"].counts["candidates_sampled"] += 1


OBSERVERS: Dict[str, Callable] = {
    "grid.raytrace_reveal": _observe_reveal,
    "cli.replay_reveal": _observe_reveal,
    "grid.distance_transform": _observe_edt,
    "heuristic.build_distance_map": _observe_dmap,
    "planner.plan": _observe_plan,
    "planner.analytic_expansions": _observe_analytic,
    "reeds_shepp.rs_all_paths": _observe_rs_all,
    "geometry.sample_path": _observe_sample,
}


def resolve(site: str):
    """The module and attribute name of a call site; raises if it is gone."""
    module_name, attr = site.split(".")
    module = importlib.import_module(f"hybridplan.{module_name}")
    if not callable(getattr(module, attr, None)):
        raise LookupError(f"wrapped call site hybridplan.{site} no longer exists")
    return module, attr


class Probe:
    """Wraps the call sites of `layers` while used as a context manager.

    Spans are kept in memory as [layer, start, end, parent index, mission id]
    and written out once, by `write_chrome_trace`.  `before_tick`, when
    given, is called at each `mission_tick` entry before its span starts.
    """

    def __init__(self, layers, before_tick: Optional[Callable[[], None]] = None) -> None:
        self.layers: Dict[str, Layer] = {name: Layer() for name in layers}
        self.before_tick = before_tick
        self.spans: List[list] = []
        self.mission_id: Optional[str] = None
        self._stack: List[int] = []
        self._child_s: List[float] = []
        self._last: Dict[str, np.ndarray] = {}
        self._saved: List[Tuple[object, str, Callable]] = []

    def __enter__(self) -> "Probe":
        try:
            for name in self.layers:
                for site in SITES[name]:
                    module, attr = resolve(site)
                    original = getattr(module, attr)
                    self._saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(name, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def begin_mission(self, mission_id: str) -> None:
        self.mission_id = mission_id
        self._last.clear()

    def current_layer(self) -> Optional[str]:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def note_change(self, layer: Layer, key: str, value: np.ndarray) -> None:
        """Count a call as useful when `value` differs from the previous call's."""
        previous = self._last.get(key)
        if previous is None or not np.array_equal(previous, value):
            layer.counts["useful"] += 1
        self._last[key] = value.copy()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        layer = self.layers[name]
        observe = OBSERVERS.get(name)
        before = self.before_tick if name == "mission.mission_tick" else None
        spans, stack, child_s = self.spans, self._stack, self._child_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.mission_id])
            stack.append(index)
            child_s.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                inner = child_s.pop()
                span = spans[index]
                span[1], span[2] = start, end
                layer.calls += 1
                layer.total_s += end - start
                layer.self_s += end - start - inner
                if child_s:
                    child_s[-1] += end - start
            if observe is not None:
                observe(self, layer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def per_layer(self, replans: Counter, run_s: float) -> Dict[str, float]:
        """The PER_LAYER metrics from the recorded layers and replan causes."""
        out: Dict[str, float] = {}
        for name, layer in self.layers.items():
            out[f"{name}.self_s"] = layer.self_s
            out[f"{name}.calls"] = layer.calls
            for key, value in layer.counts.items():
                out[f"{name}.{key}"] = value
        for name in ("grid.distance_transform", "heuristic.build_distance_map"):
            layer = self.layers[name]
            out[f"{name}.useful_ratio"] = layer.counts["useful"] / layer.calls if layer.calls else 0.0
        analytic = self.layers["planner.analytic_expansions"]
        out["planner.analytic_expansions.success_ratio"] = (
            analytic.counts["success"] / analytic.calls if analytic.calls else 0.0)
        plan = self.layers["planner.plan"]
        nodes = plan.counts["nodes_expanded"]
        out["planner.plan.us_per_node"] = plan.total_s / nodes * 1e6 if nodes else 0.0
        for cause in REPLAN_CAUSES:
            out[f"mission.replans.{cause}"] = replans[cause]
        out["trace.run_s"] = run_s
        out["trace.spans"] = len(self.spans)
        return {name: out.get(name, 0) for name, _ in PER_LAYER}

    def write_chrome_trace(self, path, summary: dict) -> None:
        """Chrome trace-event JSON (chrome://tracing, Perfetto) plus the summary."""
        t0 = self.spans[0][1] if self.spans else 0.0
        events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
                   "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                   "args": {"mission": mission, "parent": parent, "id": i}}
                  for i, (name, start, end, parent, mission) in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "summary": summary}, fh)
