"""Command line front end: run scenarios, compare modes, dump defaults.

Exit codes: 0 on success (goal reached / all comparisons complete), 1 on
configuration errors, 2 when a run fails to reach its goal.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .heuristic import resolution_factor
from .mission import MissionConfig, NAV_EARLY_STOP, NAV_NONE, NAV_WAYPOINT, TickResult
from .planner import EXTENDED, PlannedPath, PlannerConfig, STANDARD
from .scenarios import (bundled_scenario_path, check_fields, field_types, load_scenario,
                        read_json_object)
from .simulate import MetricsReport, ScenarioSpec, run_scenario
from .svg import render_run
from .vehicle import VehicleSpec
from .grid import OccupancyGrid, UNKNOWN, raytrace_reveal

# run mode -> (planner mode, navigation), the row run_scenario takes
MODES = {
    "standard": (STANDARD, NAV_NONE),
    "guided": (STANDARD, NAV_EARLY_STOP),
    "extended": (EXTENDED, NAV_NONE),
    "guided+extended": (EXTENDED, NAV_EARLY_STOP),
    "waypoint": (STANDARD, NAV_WAYPOINT),
    "waypoint+extended": (EXTENDED, NAV_WAYPOINT),
}


@dataclasses.dataclass
class RunConfig:
    scenario: str
    mode: str = "guided"
    output_dir: str = "out"
    planner: PlannerConfig = dataclasses.field(default_factory=PlannerConfig)
    mission: MissionConfig = dataclasses.field(default_factory=MissionConfig)
    vehicle: VehicleSpec = dataclasses.field(default_factory=VehicleSpec)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode: must be one of {sorted(MODES)}, got {self.mode!r}")


_SECTIONS = {"planner": PlannerConfig, "mission": MissionConfig, "vehicle": VehicleSpec}
_CONFIG_TYPES = {"scenario": str, "mode": str, "output_dir": str,
                 **{name: field_types(cls) for name, cls in _SECTIONS.items()}}


def _build_section(cls, overrides: dict, section: str):
    try:
        return cls(**overrides)
    except ValueError as exc:
        raise ValueError(f"{section}: {exc}") from None


def load_config(path) -> RunConfig:
    data = check_fields(read_json_object(Path(path)), _CONFIG_TYPES)
    if "scenario" not in data:
        raise ValueError("scenario: required field missing")
    # a field left out takes RunConfig's default
    return RunConfig(**{name: _build_section(_SECTIONS[name], value, name)
                        if name in _SECTIONS else value for name, value in data.items()})


def resolve_scenario(ref: str, config_dir: Path) -> ScenarioSpec:
    try:
        if ref.startswith("bundled:"):
            path = bundled_scenario_path(ref.split(":", 1)[1])
        else:
            path = config_dir / ref          # an absolute ref replaces config_dir
        return load_scenario(path)
    except (ValueError, OSError) as exc:
        raise ValueError(f"scenario: {exc}") from None


def load_run(config_path) -> Tuple[RunConfig, ScenarioSpec]:
    """A run configuration and its scenario, checked against each other."""
    cfg = load_config(config_path)
    spec = resolve_scenario(cfg.scenario, Path(config_path).resolve().parent)
    try:
        resolution_factor(cfg.planner.xy_resolution, spec.truth_map.resolution)
    except ValueError as exc:
        raise ValueError(f"planner: {exc}") from None
    return cfg, spec


def _final_belief(spec: ScenarioSpec, driven: PlannedPath) -> Optional[OccupancyGrid]:
    """Replay the reveals along the driven path for the belief overlay."""
    if spec.known_env:
        return None
    belief = OccupancyGrid.filled(spec.truth_map.width_cells, spec.truth_map.height_cells,
                                  spec.truth_map.resolution, UNKNOWN)
    s = 0.0
    total = driven.total_drive_length
    while True:
        pose = driven.pose_at(s) or spec.start     # None: the vehicle never moved
        raytrace_reveal(spec.truth_map, belief, pose, spec.sensor_range, spec.n_rays)
        if s >= total:
            break
        s = min(s + spec.drive_step, total)
    return belief


# the files `execute_run` writes into its directory
RUN_OUTPUTS = ("path.json", "metrics.csv", "events.log", "map.svg")


def _write_outputs(out_dir: Path, texts: Dict[str, str]) -> None:
    """Create `out_dir` and write each named text into it; an OSError names output_dir."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            (out_dir / name).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"output_dir: {exc}") from None


def execute_run(cfg: RunConfig, spec: ScenarioSpec, out_dir: Path,
                with_timing: bool) -> Tuple[MetricsReport, List[TickResult]]:
    # an unusable directory or output file fails before the mission
    _write_outputs(out_dir, dict.fromkeys(RUN_OUTPUTS, ""))
    run = run_scenario(spec, cfg.mission, cfg.planner, MODES[cfg.mode], cfg.vehicle)
    svg = render_run(spec.truth_map, _final_belief(spec, run.driven), run.driven)
    _write_outputs(out_dir, {**run.texts(with_timing), "map.svg": svg})
    return run.report, run.events


def cmd_run(args) -> int:
    try:
        cfg, spec = load_run(args.config)
        report, _ = execute_run(cfg, spec, Path(cfg.output_dir), not args.no_timing)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not report.reached:
        print(f"run failed: {report.stop_cause}", file=sys.stderr)
        return 2
    return 0


def cmd_compare(args) -> int:
    if len(args.configs) < 2:
        print("error: compare needs at least two configs", file=sys.stderr)
        return 1
    try:
        loaded = [load_run(c) for c in args.configs]
        out_root = Path(args.output_dir or loaded[0][0].output_dir)
        lines = ["mode," + ",".join(MetricsReport.COLUMNS)]
        subs = [out_root / f"run_{idx:02d}_{cfg.mode.replace('+', '_')}"
                for idx, (cfg, _) in enumerate(loaded)]
        # an unusable run directory or output file, then an unwritable comparison.csv,
        # fail before any mission
        for sub in subs:
            _write_outputs(sub, dict.fromkeys(RUN_OUTPUTS, ""))
        _write_outputs(out_root, {"comparison.csv": lines[0] + "\n"})
        for (cfg, spec), sub in zip(loaded, subs):
            report, _ = execute_run(cfg, spec, sub, not args.no_timing)
            lines.append(f"{cfg.mode},{report.format(not args.no_timing)}")
        _write_outputs(out_root, {"comparison.csv": "\n".join(lines) + "\n"})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_print_defaults(_args) -> int:
    defaults = dataclasses.asdict(RunConfig(scenario="bundled:known_large"))
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
