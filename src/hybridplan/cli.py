"""Command line front end: run scenarios, compare modes, dump defaults.

Exit codes: 0 on success (goal reached / all comparisons complete), 1 on
configuration errors, 2 when a run fails to reach its goal.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import List, Optional, Tuple

from .mission import MissionConfig, NAV_EARLY_STOP, NAV_NONE
from .planner import DriveSegment, EXTENDED, PlannedPath, PlannerConfig, STANDARD
from .scenarios import bundled_scenario_path, load_scenario
from .simulate import EventRecord, MetricsReport, ScenarioSpec, run_scenario
from .svg import render_run
from .vehicle import VehicleSpec
from .grid import OccupancyGrid, UNKNOWN, raytrace_reveal

MODES = {
    "standard": (STANDARD, NAV_NONE),
    "guided": (STANDARD, NAV_EARLY_STOP),
    "extended": (EXTENDED, NAV_NONE),
    "guided+extended": (EXTENDED, NAV_EARLY_STOP),
}


class ConfigError(ValueError):
    pass


@dataclasses.dataclass
class RunConfig:
    scenario: str
    mode: str = "guided"
    output_dir: str = "out"
    seed: int = 0
    planner: PlannerConfig = dataclasses.field(default_factory=PlannerConfig)
    mission: MissionConfig = dataclasses.field(default_factory=MissionConfig)
    vehicle: VehicleSpec = dataclasses.field(default_factory=VehicleSpec)
    nav_mode_explicit: bool = False   # mission.nav_mode given in the file


def _build_section(cls, overrides: dict, section: str):
    fields = {f.name for f in dataclasses.fields(cls)}
    for key in overrides:
        if key not in fields:
            raise ConfigError(f"{section}.{key}: unknown field")
    try:
        return cls(**overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from None


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    known = {"scenario", "mode", "output_dir", "seed", "planner", "mission", "vehicle"}
    for key in data:
        if key not in known:
            raise ConfigError(f"{key}: unknown field")
    if "scenario" not in data:
        raise ConfigError("scenario: required field missing")
    mode = data.get("mode", "guided")
    if mode not in MODES:
        raise ConfigError(f"mode: must be one of {sorted(MODES)}, got {mode!r}")
    seed = data.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("seed: must be an integer")
    return RunConfig(
        scenario=str(data["scenario"]),
        mode=mode,
        output_dir=str(data.get("output_dir", "out")),
        seed=seed,
        planner=_build_section(PlannerConfig, data.get("planner", {}), "planner"),
        mission=_build_section(MissionConfig, data.get("mission", {}), "mission"),
        vehicle=_build_section(VehicleSpec, data.get("vehicle", {}), "vehicle"),
        nav_mode_explicit="nav_mode" in data.get("mission", {}),
    )


def resolve_scenario(ref: str, config_dir: Path) -> ScenarioSpec:
    if ref.startswith("bundled:"):
        return load_scenario(bundled_scenario_path(ref.split(":", 1)[1]))
    path = Path(ref)
    if not path.is_absolute():
        path = config_dir / path
    if not path.exists():
        raise ConfigError(f"scenario: file not found: {path}")
    try:
        return load_scenario(path)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"scenario: {exc}") from None


def path_to_json(path: PlannedPath) -> dict:
    segments = []
    for seg in path.segments:
        if isinstance(seg, DriveSegment):
            kappas = list(seg.kappas) + ([seg.kappas[-1]] if len(seg.kappas) else [0.0])
            segments.append({
                "type": "drive",
                "direction": seg.direction,
                "arc_length": seg.arc_length,
                "samples": [[float(x), float(y), float(yaw), float(k)]
                            for x, y, yaw, k in zip(seg.xs, seg.ys, seg.yaws, kappas)],
            })
        else:
            segments.append({
                "type": "rotation",
                "x": seg.x, "y": seg.y,
                "from_yaw": seg.from_yaw, "to_yaw": seg.to_yaw, "delta": seg.delta,
            })
    return {
        "total_drive_length": path.total_drive_length,
        "n_direction_switches": path.n_direction_switches,
        "n_rotations": path.n_rotations,
        "segments": segments,
    }


def metrics_csv(report: MetricsReport, with_timing: bool, mode: Optional[str] = None) -> str:
    columns = list(MetricsReport.COLUMNS)
    values = []
    for col in columns:
        v = getattr(report, col)
        if not with_timing and col in ("t_max", "t_cum", "t_avg"):
            v = 0.0
        values.append(repr(v) if isinstance(v, float) else str(v))
    if mode is not None:
        columns = ["mode"] + columns
        values = [mode] + values
    return ",".join(columns) + "\n" + ",".join(values) + "\n"


def _final_belief(spec: ScenarioSpec, driven: PlannedPath) -> Optional[OccupancyGrid]:
    """Replay the reveals along the driven path for the belief overlay."""
    if spec.known_env:
        return None
    belief = OccupancyGrid.filled(spec.truth_map.width_cells, spec.truth_map.height_cells,
                                  spec.truth_map.resolution, UNKNOWN, spec.truth_map.origin)
    s = 0.0
    total = driven.total_drive_length
    while True:
        pose = driven.pose_at(s)
        raytrace_reveal(spec.truth_map, belief, pose, spec.sensor_range, spec.n_rays)
        if s >= total:
            break
        s = min(s + spec.drive_step, total)
    return belief


def execute_run(cfg: RunConfig, spec: ScenarioSpec, out_dir: Path,
                with_timing: bool) -> Tuple[MetricsReport, List[EventRecord]]:
    planner_mode, nav_mode = MODES[cfg.mode]
    mission = cfg.mission if cfg.nav_mode_explicit \
        else dataclasses.replace(cfg.mission, nav_mode=nav_mode)
    driven, report, events = run_scenario(spec, mission, cfg.planner,
                                          planner_mode, cfg.vehicle)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "path.json").write_text(
        json.dumps(path_to_json(driven), sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8")
    (out_dir / "metrics.csv").write_text(metrics_csv(report, with_timing), encoding="utf-8")
    (out_dir / "events.log").write_text(
        "".join(e.format(with_timing) + "\n" for e in events), encoding="utf-8")
    (out_dir / "map.svg").write_text(
        render_run(spec.truth_map, _final_belief(spec, driven), driven), encoding="utf-8")
    return report, events


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        spec = resolve_scenario(cfg.scenario, Path(args.config).resolve().parent)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report, _ = execute_run(cfg, spec, Path(cfg.output_dir), not args.no_timing)
    if not report.reached:
        print(f"run failed: {report.stop_cause}", file=sys.stderr)
        return 2
    return 0


def cmd_compare(args) -> int:
    if len(args.configs) < 2:
        print("error: compare needs at least two configs", file=sys.stderr)
        return 1
    try:
        loaded = []
        for c in args.configs:
            cfg = load_config(c)
            spec = resolve_scenario(cfg.scenario, Path(c).resolve().parent)
            loaded.append((cfg, spec))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_root = Path(args.output_dir or loaded[0][0].output_dir)
    workers = max(1, int(os.environ.get("PLAN_THREADS", "1")))

    def one(item):
        idx, (cfg, spec) = item
        sub = out_root / f"run_{idx:02d}_{cfg.mode.replace('+', '_')}"
        report, _ = execute_run(cfg, spec, sub, not args.no_timing)
        return cfg.mode, report

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, enumerate(loaded)))
    else:
        results = [one(item) for item in enumerate(loaded)]

    columns = ["mode", "n_planner_calls", "t_max", "t_cum", "t_avg", "cumulative_nodes",
               "kappa_dot_rms", "kappa_dot_max_abs", "p_max", "p_avg", "length"]
    lines = [",".join(columns)]
    for mode, report in results:
        row = [mode]
        for col in columns[1:]:
            v = getattr(report, col)
            if args.no_timing and col in ("t_max", "t_cum", "t_avg"):
                v = 0.0
            row.append(repr(v) if isinstance(v, float) else str(v))
        lines.append(",".join(row))
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "comparison.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def cmd_print_defaults(_args) -> int:
    defaults = {
        "scenario": "bundled:known_large",
        "mode": "guided",
        "output_dir": "out",
        "seed": 0,
        "planner": dataclasses.asdict(PlannerConfig()),
        "mission": dataclasses.asdict(MissionConfig()),
        "vehicle": dataclasses.asdict(VehicleSpec()),
    }
    print(json.dumps(defaults, indent=2, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="plan", description="Kinematic path planning benchmark runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario configuration")
    p_run.add_argument("config")
    p_run.add_argument("--no-timing", action="store_true",
                       help="zero out wall-clock fields for reproducible outputs")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several configurations and tabulate")
    p_cmp.add_argument("configs", nargs="*")
    p_cmp.add_argument("--output-dir", default=None)
    p_cmp.add_argument("--no-timing", action="store_true")
    p_cmp.set_defaults(func=cmd_compare)

    p_def = sub.add_parser("print-defaults", help="dump the default configuration")
    p_def.set_defaults(func=cmd_print_defaults)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
