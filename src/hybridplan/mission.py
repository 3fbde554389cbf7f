"""Guided replanning: navigation stop rules, divergence and collision
triggers, and start-pose selection on the previously planned path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .geometry import Pose2D, normalize_angle
from .grid import OccupancyGrid
from .heuristic import (AStarPath, DistanceMap, GoalBlockedError, NoRouteError,
                        build_distance_map, detect_divergence, extract_astar_path,
                        waypose_at)
from .planner import (PlannedPath, PlannerConfig, PlannerFailure,
                      RotationSegment, SearchStats, STOP_AT_GOAL, STOP_EARLY,
                      _CollisionChecker, plan)
from .vehicle import DiskSet, VehicleSpec, make_disk_set

NAV_NONE = "none"
NAV_WAYPOINT = "waypoint"
NAV_EARLY_STOP = "early_stop"


@dataclass(frozen=True)
class MissionConfig:
    s_w: float = 55.0          # [m] navigation horizon
    s_lim: float = 60.0        # [m] plan straight to the goal below this
    s_t: float = 10.0          # [m] progress between navigation refreshes
    d_div: float = 5.0         # [m] allowed route divergence
    alpha: float = 0.5         # start-pose downscale, in (0, 1)
    s_coll: float = 20.0       # [m] replan when the path collides within this
    nav_mode: str = NAV_EARLY_STOP

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must be in (0, 1)")
        if self.nav_mode not in (NAV_NONE, NAV_WAYPOINT, NAV_EARLY_STOP):
            raise ValueError(f"unknown nav_mode {self.nav_mode!r}")


@dataclass
class MissionState:
    vehicle_pose: Pose2D
    goal: Pose2D
    current_path: Optional[PlannedPath] = None
    prev_astar: Optional[AStarPath] = None
    progress_s: float = 0.0               # drive arc length along current_path
    rotations_done: int = 0               # executed rotations on current_path
    odometer: float = 0.0                 # total distance driven so far
    last_replan_odometer: float = -math.inf
    distance_to_goal: float = math.inf    # 2D route distance from the vehicle
    path_to_goal: bool = False            # current path ends at the final goal
    # (belief object, belief version, map) of the last built distance map
    _dmap_cache: Optional[Tuple[OccupancyGrid, int, DistanceMap]] = None


@dataclass(frozen=True)
class TickResult:
    status: str                                   # keep_driving/replanned/goal_reached/failed
    cause: Optional[str] = None                   # initial/collision/divergence/refresh/goal_mode
    s_plan: float = 0.0
    stats: Optional[SearchStats] = None
    reason: Optional[str] = None                  # failure reason
    s_div_found: Optional[float] = None
    s_coll_found: Optional[float] = None

    @property
    def replanned(self) -> bool:
        return self.status == "replanned"


def check_path_collision(path: PlannedPath, from_s: float, belief: OccupancyGrid,
                         disks: DiskSet) -> Optional[float]:
    """Arc length past from_s of the first colliding sample, None when clear."""
    checker = _CollisionChecker(belief, disks)
    acc = 0.0
    for seg in path.segments:
        if isinstance(seg, RotationSegment):
            if acc >= from_s - 1e-9 and checker.rotation_blocked(seg.x, seg.y):
                return max(acc - from_s, 0.0)
            continue
        seg_end = acc + seg.arc_length
        if seg_end < from_s:
            acc = seg_end
            continue
        keep = (seg.s + acc) >= from_s - 1e-9
        xs = seg.xs[keep]
        if xs.size:
            ys = seg.ys[keep]
            yaws = seg.yaws[keep]
            blocked = checker.batch_blocked(xs, ys, np.cos(yaws), np.sin(yaws))
            hits = np.nonzero(blocked)[0]
            if hits.size:
                s_hit = float(seg.s[keep][hits[0]]) + acc
                return max(s_hit - from_s, 0.0)
        acc = seg_end
    return None


def compute_replan_start(state: MissionState, s_coll_found: Optional[float],
                         s_div_found: Optional[float], alpha: float
                         ) -> Tuple[Pose2D, float]:
    """Start pose for the next plan, at alpha * min(remaining, s_coll, s_div)."""
    if state.current_path is None:
        raise ValueError("nothing to replan from")
    remaining = state.current_path.total_drive_length - state.progress_s
    bound = min(remaining,
                s_coll_found if s_coll_found is not None else math.inf,
                s_div_found if s_div_found is not None else math.inf)
    s_plan = alpha * max(bound, 0.0)
    start = state.current_path.pose_at(state.progress_s + s_plan)
    return start, s_plan


def _goal_reached(state: MissionState, planner_cfg: PlannerConfig) -> bool:
    dp = state.vehicle_pose.distance_to(state.goal)
    dyaw = abs(normalize_angle(state.vehicle_pose.yaw - state.goal.yaw))
    return dp <= planner_cfg.xy_resolution and dyaw <= planner_cfg.yaw_resolution


def _gear_at(path: PlannedPath, s: float) -> Tuple[int, float]:
    """Direction and steering proxy at arc length s (for stitch continuity)."""
    acc = 0.0
    last: Tuple[int, float] = (0, 0.0)
    for seg in path.segments:
        if isinstance(seg, RotationSegment):
            if acc < s:
                last = (0, 0.0)
            continue
        if acc + seg.arc_length >= s - 1e-9:
            kappa = seg.kappa_at(min(s - acc, seg.arc_length))
            return seg.direction, kappa
        acc += seg.arc_length
        last = (seg.direction, float(seg.kappas[-1]) if len(seg.kappas) else 0.0)
    return last


def mission_tick(state: MissionState, belief: OccupancyGrid, mission_cfg: MissionConfig,
                 planner_cfg: PlannerConfig, planner_mode: str, vehicle: VehicleSpec,
                 force_replan_cause: Optional[str] = None) -> TickResult:
    """One decision step: refresh the 2D route, test the triggers, replan.

    The distance map and the coarse route are rebuilt on the current belief
    every tick; route divergence against the previous tick, an upcoming path
    collision, missing path, or accumulated progress trigger a replan.
    """
    if _goal_reached(state, planner_cfg):
        return TickResult(status="goal_reached")

    try:
        cache = state._dmap_cache
        if cache is not None and cache[0] is belief and cache[1] == belief.version:
            dmap = cache[2]
        else:
            dmap = build_distance_map(belief, state.goal, planner_cfg.xy_resolution,
                                      planner_cfg.inflation_radius)
            state._dmap_cache = (belief, belief.version, dmap)
    except GoalBlockedError as exc:
        return TickResult(status="failed", reason=str(exc))
    try:
        astar = extract_astar_path(dmap, state.vehicle_pose)
    except NoRouteError as exc:
        return TickResult(status="failed", reason=str(exc))

    state.distance_to_goal = dmap.route_distance(state.vehicle_pose.x, state.vehicle_pose.y)

    s_div_found = None
    if state.prev_astar is not None and mission_cfg.nav_mode != NAV_NONE:
        s_div_found = detect_divergence(state.prev_astar, astar, mission_cfg.d_div)
    state.prev_astar = astar

    disks = make_disk_set(vehicle)
    s_coll_found = None
    if state.current_path is not None:
        s_coll_found = check_path_collision(state.current_path, state.progress_s,
                                            belief, disks)

    cause: Optional[str] = force_replan_cause
    if cause is None:
        if state.current_path is None:
            cause = "initial"
        elif s_coll_found is not None and s_coll_found <= mission_cfg.s_coll:
            cause = "collision"
        elif s_div_found is not None:
            cause = "divergence"
        elif (mission_cfg.nav_mode != NAV_NONE and not state.path_to_goal
              and state.odometer - state.last_replan_odometer >= mission_cfg.s_t):
            cause = "refresh"  # navigation refresh: moot once planned to the goal
        elif (state.current_path.total_drive_length - state.progress_s <= 1e-9
              and state.rotations_done >= state.current_path.n_rotations):
            cause = "goal_mode"  # ran off the end of a truncated path

    if cause is None:
        return TickResult(status="keep_driving")

    if state.current_path is None or cause in ("initial", "goal_mode"):
        # plan afresh from the vehicle itself (no path, or ran off its end)
        start = state.vehicle_pose
        s_plan = 0.0
        prefix = PlannedPath()
        start_dir, start_kappa = 0, 0.0
    else:
        start, s_plan = compute_replan_start(state, s_coll_found, s_div_found,
                                             mission_cfg.alpha)
        prefix = state.current_path.slice(state.progress_s, state.progress_s + s_plan)
        start_dir, start_kappa = _gear_at(state.current_path, state.progress_s + s_plan)

    # stop-rule selection from the planning start pose's route distance
    s_g_start = dmap.route_distance(start.x, start.y)
    stop_rule = STOP_AT_GOAL
    s_w = mission_cfg.s_w
    goal = state.goal
    if s_g_start >= mission_cfg.s_lim:
        if mission_cfg.nav_mode == NAV_EARLY_STOP:
            stop_rule = STOP_EARLY
        elif mission_cfg.nav_mode == NAV_WAYPOINT:
            try:
                goal = waypose_at(astar, mission_cfg.s_w)
            except ValueError:
                goal = state.goal

    start_steer = math.atan(start_kappa * vehicle.wheelbase)
    try:
        planned, stats = plan(belief, start, goal, vehicle, planner_cfg,
                              mode=planner_mode, stop_rule=stop_rule, s_w=s_w,
                              distance_map=dmap if goal is state.goal else None,
                              start_direction=start_dir, start_steer=start_steer)
    except PlannerFailure as exc:
        return TickResult(status="failed", cause=cause, s_plan=s_plan, reason=str(exc))

    state.current_path = prefix.concat(planned)
    state.progress_s = 0.0
    state.rotations_done = 0
    state.last_replan_odometer = state.odometer
    state.path_to_goal = stop_rule == STOP_AT_GOAL and goal is state.goal
    return TickResult(status="replanned", cause=cause, s_plan=s_plan, stats=stats,
                      s_div_found=s_div_found, s_coll_found=s_coll_found)
