"""Closed-loop drive / sense / replan simulation and the evaluation metrics.

The vehicle follows the planned path exactly; an in-place rotation consumes
one simulation step and contributes no driven distance.  All randomness-free:
two runs of the same scenario produce identical paths and event logs apart
from wall-clock timing fields.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .geometry import Pose2D, normalize_angles
from .grid import OccupancyGrid, Raster, UNKNOWN, raytrace_reveal, voronoi_field
from .mission import MissionConfig, MissionState, TickResult, mission_tick
from .planner import (DriveSegment, PathBuilder, PlannedPath, PlannerConfig,
                      RotationSegment, field_cap)
from .vehicle import VehicleSpec

DEFAULT_METRIC_DS = 0.5   # [m] curvature resampling step for the smoothness metric


@dataclass(frozen=True)
class ScenarioSpec:
    truth_map: OccupancyGrid
    start: Pose2D
    goal: Pose2D
    known_env: bool = True
    sensor_range: float = 30.0
    n_rays: int = 1440
    drive_step: float = 0.5
    max_sim_steps: int = 4000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sensor_range) and self.sensor_range > 0.0):
            raise ValueError(f"sensor_range must be finite and positive, got {self.sensor_range!r}")
        for name in ("n_rays", "max_sim_steps"):    # a float fails only at its first use
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n_rays < 8:
            raise ValueError(f"n_rays must be at least 8, got {self.n_rays!r}")
        if not (math.isfinite(self.drive_step) and self.drive_step > 0.0):
            raise ValueError(f"drive_step must be finite and positive, got {self.drive_step!r}")
        if self.max_sim_steps < 0:
            raise ValueError(f"max_sim_steps must be non-negative, got {self.max_sim_steps!r}")
        if (self.truth_map.cells == UNKNOWN).any():
            raise ValueError("truth_map must not contain unknown cells")


@dataclass
class MetricsReport:
    kappa_dot_rms: float = 0.0
    kappa_dot_max_abs: float = 0.0
    p_max: float = 0.0
    p_avg: float = 0.0
    length: float = 0.0
    n_planner_calls: int = 0
    t_max: float = 0.0
    t_cum: float = 0.0
    t_avg: float = 0.0
    cumulative_nodes: int = 0
    n_direction_switches: int = 0
    n_rotations: int = 0
    reached: bool = False
    stop_cause: str = ""   # the last tick's reason (`TickResult`) or step limit

    COLUMNS = ("kappa_dot_rms", "kappa_dot_max_abs", "p_max", "p_avg", "length",
               "n_planner_calls", "t_max", "t_cum", "t_avg", "cumulative_nodes",
               "n_direction_switches", "n_rotations", "reached")
    TIMED = ("t_max", "t_cum", "t_avg")   # wall-clock columns, 0.0 without timing

    def format(self, with_timing: bool = True) -> str:
        """The metrics.csv row of COLUMNS: floats by repr."""
        values = (getattr(self, col) if with_timing or col not in self.TIMED else 0.0
                  for col in self.COLUMNS)
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)


def path_to_json(path: PlannedPath) -> dict:
    """The path.json object: the path's totals and each segment's samples."""
    segments = []
    for seg in path.segments:
        if isinstance(seg, DriveSegment):
            samples = zip(seg.xs, seg.ys, seg.yaws, list(seg.kappas) + [seg.kappas[-1]])
            segments.append({"type": "drive", "direction": seg.direction,
                             "arc_length": seg.arc_length,
                             "samples": [[float(v) for v in sample] for sample in samples]})
        else:
            segments.append({"type": "rotation", "x": seg.x, "y": seg.y, "from_yaw": seg.from_yaw,
                             "to_yaw": seg.to_yaw, "delta": seg.delta})
    return {"total_drive_length": path.total_drive_length,
            "n_direction_switches": path.n_direction_switches,
            "n_rotations": path.n_rotations, "segments": segments}


@dataclass(frozen=True)
class Run:
    """One closed-loop run: the driven path, its score and the replan events."""
    driven: PlannedPath
    report: MetricsReport
    events: List[TickResult]    # the ticks that called the planner

    def texts(self, with_timing: bool) -> Dict[str, str]:
        """The text of path.json, metrics.csv and events.log, keyed by file name."""
        return {
            "path.json": json.dumps(path_to_json(self.driven), sort_keys=True,
                                    separators=(",", ":")) + "\n",
            "metrics.csv": (",".join(MetricsReport.COLUMNS) + "\n"
                            + self.report.format(with_timing) + "\n"),
            "events.log": "".join(f"{e.step},{e.cause},{e.s_plan:.6f},{e.nodes},"
                                  f"{e.seconds if with_timing else 0.0:.6f}\n"
                                  for e in self.events),
        }


def _follow(state: MissionState, builder: PathBuilder, drive_step: float) -> Iterator[None]:
    """Drive state.current_path one simulation step per resumption: a whole
    rotation in place, or up to drive_step along a drive segment.  A step moves
    the vehicle and its place on the path, and adds it to builder."""
    for acc, seg in state.current_path.walk():
        if isinstance(seg, RotationSegment):
            builder.add_rotation(_rotation_delta(seg.from_yaw, seg.to_yaw))
            state.vehicle_pose = Pose2D(seg.x, seg.y, seg.to_yaw)
            state.progress_s = acc
            state.rotations_done += 1
            yield
            continue
        arc = seg.arc_length
        offset = 0.0
        while arc - offset > 1e-9:
            new = min(offset + drive_step, arc)
            pose = seg.pose_at(new)
            builder.add_drive_sample(pose.x, pose.y, pose.yaw,
                                     seg.kappa_at(max(new - 1e-9, 0.0)), seg.direction)
            state.vehicle_pose = pose
            state.progress_s = acc + (arc if arc - new <= 1e-9 else new)
            offset = new
            yield


def run_scenario(spec: ScenarioSpec, mission_cfg: MissionConfig,
                 planner_cfg: PlannerConfig, mode: Tuple[str, str],
                 vehicle: Optional[VehicleSpec] = None) -> Run:
    """Drive the scenario to the goal (or failure) and score the driven path;
    mode is a `cli.MODES` row (planner mode, navigation)."""
    vehicle = vehicle or VehicleSpec()
    truth = spec.truth_map
    # the belief's one obstacle field, saturated above every threshold that reads it
    cap = field_cap(vehicle, planner_cfg, truth.resolution)
    cells = truth.cells if spec.known_env else np.full_like(truth.cells, UNKNOWN)
    belief = OccupancyGrid(truth.resolution, cells, cap)

    state = MissionState(vehicle_pose=spec.start, goal=spec.goal)
    events: List[TickResult] = []
    builder = PathBuilder(spec.start)
    steps: Iterator[None] = iter(())
    stop_cause: Optional[str] = None

    for step in range(spec.max_sim_steps):
        if not spec.known_env:
            raytrace_reveal(truth, belief, state.vehicle_pose,
                            spec.sensor_range, spec.n_rays)

        result = mission_tick(state, belief, mission_cfg, planner_cfg, mode, vehicle)
        if result.nodes is not None:        # a planner call, failed or not
            events.append(replace(result, step=step))
        if result.reason is not None:
            stop_cause = result.reason
            break
        if result.replanned:
            steps = _follow(state, builder, spec.drive_step)
        # at the path's end no step is left: the next tick replans or detects arrival
        next(steps, None)

    driven = builder.finish()
    report = score_run(driven, truth, vehicle, events,
                       stop_cause or f"step limit: {spec.max_sim_steps} steps")
    return Run(driven, report, events)


def _rotation_delta(from_yaw: float, to_yaw: float) -> float:
    d = to_yaw - from_yaw
    while d > math.pi:
        d -= 2.0 * math.pi
    while d < -math.pi:
        d += 2.0 * math.pi
    return d


def score_run(driven: PlannedPath, truth: OccupancyGrid, vehicle: VehicleSpec,
              events: List[TickResult], stop_cause: str) -> MetricsReport:
    """Score the driven path; the planner effort is read from the replan events."""
    report = MetricsReport(reached=stop_cause == "reached", stop_cause=stop_cause)
    report.length = driven.total_drive_length
    report.n_direction_switches = driven.n_direction_switches
    report.n_rotations = driven.n_rotations
    report.n_planner_calls = len(events)
    report.cumulative_nodes = sum(e.nodes for e in events)
    if events:
        seconds = [e.seconds for e in events]
        report.t_max = max(seconds)
        report.t_cum = sum(seconds)
        report.t_avg = report.t_cum / len(seconds)
    try:
        report.kappa_dot_rms, report.kappa_dot_max_abs = kappa_dot_rms(driven, DEFAULT_METRIC_DS)
    except ValueError:
        pass  # too short to score, leave zeros
    field = voronoi_field(truth)
    report.p_max, report.p_avg = proximity_stats(driven, field, vehicle)
    return report


def kappa_dot_rms(driven: PlannedPath, ds: float) -> Tuple[float, float]:
    """RMS and max of the curvature change rate, resampled at ds.

    Each drive segment is resampled independently (rotations contribute no
    distance and are excluded); the squared rates are pooled across segments.
    """
    if not ds > 0.0:
        raise ValueError("ds must be positive")
    sq_sum = 0.0
    count = 0
    max_abs = 0.0
    for seg in driven.segments:
        if not isinstance(seg, DriveSegment) or seg.arc_length < ds:
            continue
        n = int(math.floor(seg.arc_length / ds))
        offsets = np.arange(n + 1) * ds
        kappas = seg.kappas[seg.interval(offsets)]
        rates = np.diff(kappas) / ds            # n >= 1 rates: arc_length >= ds
        sq_sum += float(np.sum(rates ** 2))
        count += rates.size
        max_abs = max(max_abs, float(np.max(np.abs(rates))))
    if count == 0:
        raise ValueError("path too short")
    return math.sqrt(sq_sum / count), max_abs


def proximity_stats(driven: PlannedPath, field: Raster,
                    vehicle: VehicleSpec) -> Tuple[float, float]:
    """Max and mean footprint-corner proximity over the driven path's poses."""
    poses = [np.array(((seg.x, seg.x), (seg.y, seg.y), (seg.from_yaw, seg.to_yaw)))
             if isinstance(seg, RotationSegment) else np.array((seg.xs, seg.ys, seg.yaws))
             for seg in driven.segments]
    if not poses:
        return 0.0, 0.0
    xs, ys, yaws = np.concatenate(poses, axis=1)
    corners = vehicle.footprint_corners(xs, ys, normalize_angles(yaws))
    flat, off = field.flat_cells(corners)
    values = np.where(off, field.outside, field.values.take(flat, mode="wrap"))
    per_sample = values.reshape(corners.shape[1:]).max(axis=0).tolist()
    # summed left to right, as a Python loop adds them
    return float(max(per_sample)), float(sum(per_sample) / len(per_sample))
