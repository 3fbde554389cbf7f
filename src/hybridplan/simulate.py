"""Closed-loop drive / sense / replan simulation and the evaluation metrics.

The vehicle follows the planned path exactly; an in-place rotation consumes
one simulation step and contributes no driven distance.  All randomness-free:
two runs of the same scenario produce identical paths and event logs apart
from wall-clock timing fields.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .geometry import Pose2D
from .grid import OccupancyGrid, UNKNOWN, VoronoiField, raytrace_reveal, voronoi_field
from .mission import MissionConfig, MissionState, mission_tick
from .planner import (DriveSegment, PathBuilder, PlannedPath, PlannerConfig,
                      RotationSegment)
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


@dataclass
class EventRecord:
    step: int
    cause: str            # initial / collision / divergence / refresh / goal_mode
    s_plan: float
    nodes: int
    seconds: float
    s_div: Optional[float] = None
    s_coll: Optional[float] = None

    def format(self, with_timing: bool = True) -> str:
        seconds = self.seconds if with_timing else 0.0
        return f"{self.step},{self.cause},{self.s_plan:.6f},{self.nodes},{seconds:.6f}"


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
    stop_cause: str = ""   # reached / planner failure / route lost / step limit

    COLUMNS = ("kappa_dot_rms", "kappa_dot_max_abs", "p_max", "p_avg", "length",
               "n_planner_calls", "t_max", "t_cum", "t_avg", "cumulative_nodes",
               "n_direction_switches", "n_rotations", "reached")


class _PathCursor:
    """Sequential traversal of a planned path with step-consuming rotations."""

    def __init__(self, path: PlannedPath) -> None:
        self.path = path
        self.seg_idx = 0
        self.offset = 0.0

    def _skip_empty(self) -> None:
        while (self.seg_idx < len(self.path.segments)
               and isinstance(self.path.segments[self.seg_idx], DriveSegment)
               and self.path.segments[self.seg_idx].arc_length - self.offset <= 1e-9):
            self.seg_idx += 1
            self.offset = 0.0

    @property
    def exhausted(self) -> bool:
        self._skip_empty()
        return self.seg_idx >= len(self.path.segments)

    def progress_s(self) -> float:
        acc = 0.0
        for i, seg in enumerate(self.path.segments):
            if i == self.seg_idx:
                return acc + (self.offset if isinstance(seg, DriveSegment) else 0.0)
            if isinstance(seg, DriveSegment):
                acc += seg.arc_length
        return acc

    def rotations_done(self) -> int:
        return sum(1 for seg in self.path.segments[:self.seg_idx]
                   if isinstance(seg, RotationSegment))

    def advance(self, drive_step: float) -> Tuple[str, Pose2D, float, int, float]:
        """Advance one simulation step.

        Returns (kind, pose, kappa, direction, moved); kind is "rotate",
        "drive" or "end".  A rotation consumes the whole step without moving.
        """
        self._skip_empty()
        if self.seg_idx >= len(self.path.segments):
            return "end", self.path.end_pose() or Pose2D(0, 0, 0), 0.0, 0, 0.0
        seg = self.path.segments[self.seg_idx]
        if isinstance(seg, RotationSegment):
            self.seg_idx += 1
            self.offset = 0.0
            delta = _rotation_delta(seg.from_yaw, seg.to_yaw)
            return "rotate", Pose2D(seg.x, seg.y, seg.to_yaw), delta, 0, 0.0
        new_offset = min(self.offset + drive_step, seg.arc_length)
        moved = new_offset - self.offset
        pose = seg.pose_at(new_offset)
        kappa = seg.kappa_at(max(new_offset - 1e-9, 0.0))
        self.offset = new_offset
        if seg.arc_length - new_offset <= 1e-9:
            self.seg_idx += 1
            self.offset = 0.0
        return "drive", pose, kappa, seg.direction, moved


def run_scenario(spec: ScenarioSpec, mission_cfg: MissionConfig,
                 planner_cfg: PlannerConfig, planner_mode: str,
                 vehicle: Optional[VehicleSpec] = None
                 ) -> Tuple[PlannedPath, MetricsReport, List[EventRecord]]:
    """Drive the scenario to the goal (or failure) and score the driven path."""
    vehicle = vehicle or VehicleSpec()
    truth = spec.truth_map
    if (truth.cells == UNKNOWN).any():
        raise ValueError("ground-truth map must not contain unknown cells")
    if spec.known_env:
        belief = truth.copy()
    else:
        belief = OccupancyGrid.filled(truth.width_cells, truth.height_cells,
                                      truth.resolution, UNKNOWN, truth.origin)

    state = MissionState(vehicle_pose=spec.start, goal=spec.goal)
    events: List[EventRecord] = []
    builder = PathBuilder(spec.start)
    cursor: Optional[_PathCursor] = None
    stop_cause: Optional[str] = None
    call_times: List[float] = []
    cumulative_nodes = 0

    for step in range(spec.max_sim_steps):
        if not spec.known_env:
            raytrace_reveal(truth, belief, state.vehicle_pose,
                            spec.sensor_range, spec.n_rays)

        result = mission_tick(state, belief, mission_cfg, planner_cfg,
                              planner_mode, vehicle)
        if result.status == "goal_reached":
            stop_cause = "reached"
            break
        if result.status == "failed":
            # a planner failure happens inside a replan, which has a cause
            kind = "planner failure" if result.cause is not None else "route lost"
            stop_cause = f"{kind}: {result.reason}"
            if result.stats is not None:
                call_times.append(result.stats.wall_time_s)
                cumulative_nodes += result.stats.nodes_expanded
            break
        if result.replanned:
            assert result.stats is not None
            call_times.append(result.stats.wall_time_s)
            cumulative_nodes += result.stats.nodes_expanded
            events.append(EventRecord(step=step, cause=result.cause or "initial",
                                      s_plan=result.s_plan,
                                      nodes=result.stats.nodes_expanded,
                                      seconds=result.stats.wall_time_s,
                                      s_div=result.s_div_found,
                                      s_coll=result.s_coll_found))
            cursor = _PathCursor(state.current_path)

        if cursor is None or cursor.exhausted:
            continue  # the next tick forces a replan or detects arrival

        kind, pose, value, direction, moved = cursor.advance(spec.drive_step)
        if kind == "rotate":
            builder.add_rotation(value)   # value = signed yaw delta
        elif kind == "drive":
            state.odometer += moved
            builder.add_drive_sample(pose.x, pose.y, pose.yaw, value, direction)
        state.vehicle_pose = pose
        state.progress_s = cursor.progress_s()
        state.rotations_done = cursor.rotations_done()

    driven = builder.finish()
    report = score_run(driven, truth, vehicle, call_times, cumulative_nodes,
                       reached=stop_cause == "reached")
    report.stop_cause = stop_cause or f"step limit: {spec.max_sim_steps} steps"
    return driven, report, events


def _rotation_delta(from_yaw: float, to_yaw: float) -> float:
    d = to_yaw - from_yaw
    while d > math.pi:
        d -= 2.0 * math.pi
    while d < -math.pi:
        d += 2.0 * math.pi
    return d


def score_run(driven: PlannedPath, truth: OccupancyGrid, vehicle: VehicleSpec,
              call_times: List[float], cumulative_nodes: int, reached: bool,
              metric_ds: float = DEFAULT_METRIC_DS) -> MetricsReport:
    report = MetricsReport(reached=reached)
    report.length = driven.total_drive_length
    report.n_direction_switches = driven.n_direction_switches
    report.n_rotations = driven.n_rotations
    report.n_planner_calls = len(call_times)
    report.cumulative_nodes = cumulative_nodes
    if call_times:
        report.t_max = max(call_times)
        report.t_cum = sum(call_times)
        report.t_avg = report.t_cum / len(call_times)
    try:
        report.kappa_dot_rms, report.kappa_dot_max_abs = kappa_dot_rms(driven, metric_ds)
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
    if ds <= 0.0:
        raise ValueError("ds must be positive")
    sq_sum = 0.0
    count = 0
    max_abs = 0.0
    for seg in driven.segments:
        if not isinstance(seg, DriveSegment) or seg.arc_length < ds:
            continue
        n = int(math.floor(seg.arc_length / ds))
        offsets = np.arange(n + 1) * ds
        idx = np.clip(np.searchsorted(seg.s, offsets, side="right") - 1,
                      0, max(len(seg.kappas) - 1, 0))
        kappas = seg.kappas[idx] if len(seg.kappas) else np.zeros(n + 1)
        rates = np.diff(kappas) / ds
        if rates.size:
            sq_sum += float(np.sum(rates ** 2))
            count += rates.size
            max_abs = max(max_abs, float(np.max(np.abs(rates))))
    if count == 0:
        raise ValueError("path too short")
    return math.sqrt(sq_sum / count), max_abs


def proximity_stats(driven: PlannedPath, field: VoronoiField,
                    vehicle: VehicleSpec) -> Tuple[float, float]:
    """Max and mean footprint-corner proximity along the driven path."""
    per_sample: List[float] = []
    for seg in driven.segments:
        if isinstance(seg, RotationSegment):
            for yaw in (seg.from_yaw, seg.to_yaw):
                corners = vehicle.footprint_corners(Pose2D(seg.x, seg.y, yaw))
                per_sample.append(max(field.sample(cx, cy) for cx, cy in corners))
            continue
        for x, y, yaw in zip(seg.xs, seg.ys, seg.yaws):
            corners = vehicle.footprint_corners(Pose2D(float(x), float(y), float(yaw)))
            per_sample.append(max(field.sample(cx, cy) for cx, cy in corners))
    if not per_sample:
        return 0.0, 0.0
    return float(max(per_sample)), float(sum(per_sample) / len(per_sample))
