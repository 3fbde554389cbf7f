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
from .heuristic import (AStarPath, GoalBlockedError, NoRouteError, build_distance_map,
                        detect_divergence, extract_astar_path, waypose_at)
from .planner import (PlannedPath, PlannerConfig, PlannerFailure,
                      RotationSegment, plan)
from .vehicle import CollisionChecker, DiskSet, VehicleSpec

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

    def __post_init__(self) -> None:
        # written as not (0 < v < inf) and not (v >= 0) so that NaN fails too
        if not 0.0 < self.s_w < math.inf:
            raise ValueError("s_w must be positive and finite")
        for name in ("s_lim", "s_t", "d_div", "s_coll"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be non-negative")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must be in (0, 1)")


@dataclass
class MissionState:
    """Kept between ticks; clear_check is the last clear verdict (`carried_path_collision`)."""
    vehicle_pose: Pose2D
    goal: Pose2D
    current_path: Optional[PlannedPath] = None
    prev_astar: Optional[AStarPath] = None
    progress_s: float = 0.0               # drive arc length along current_path
    rotations_done: int = 0               # executed rotations on current_path
    odometer: float = 0.0                 # total distance driven so far
    last_replan_odometer: float = -math.inf
    path_to_goal: bool = False            # current path ends at the final goal
    clear_check: Optional[tuple] = None


@dataclass(frozen=True)
class TickResult:
    """One tick; a tick with a planner call is a replan event (`simulate.Run.events`)."""
    status: str                                   # keep_driving/replanned/goal_reached/failed
    cause: Optional[str] = None                   # initial/collision/divergence/refresh/goal_mode
    s_plan: float = 0.0
    nodes: Optional[int] = None                   # the call's nodes expanded, None without one
    seconds: float = 0.0                          # the call's wall time
    reason: Optional[str] = None                  # a failed tick's stop cause for the run
    s_div: Optional[float] = None                 # route divergence found, [m]
    s_coll: Optional[float] = None                # path collision ahead found, [m]
    step: int = 0                                 # simulation step, set by `run_scenario`

    @property
    def replanned(self) -> bool:
        return self.status == "replanned"


def check_path_collision(path: PlannedPath, from_s: float, belief: OccupancyGrid,
                         disks: DiskSet, rotations_done: int = 0) -> Optional[float]:
    """Arc length past from_s of the first colliding sample, None when clear.

    The first rotations_done rotations of the path are already executed and
    not checked (`PlannedPath.walk`); a larger from_s or rotations_done checks a subset.
    """
    checker = CollisionChecker(belief, disks)
    for acc, seg in path.walk(rotations_done):
        if isinstance(seg, RotationSegment):
            if acc >= from_s - 1e-9 and checker.rotation_blocked(seg.x, seg.y):
                return max(acc - from_s, 0.0)
        elif acc + seg.arc_length >= from_s:
            keep = (seg.s + acc) >= from_s - 1e-9
            yaws = seg.yaws[keep]
            blocked = checker.batch_blocked(np.array((seg.xs[keep], seg.ys[keep])),
                                            np.array((np.cos(yaws), np.sin(yaws))))
            if blocked.any():
                return max(float(seg.s[keep][blocked.argmax()]) + acc - from_s, 0.0)
    return None


def carried_path_collision(state: MissionState, belief: OccupancyGrid,
                           disks: DiskSet) -> Optional[float]:
    """`check_path_collision` from the vehicle's place, or None unchecked while the last
    clear check's path and obstacle field (the same objects; a check reads only the
    field and its disk mask) and disks hold and neither position is behind."""
    path, field = state.current_path, belief.distance_field().values
    held = state.clear_check        # only a clear verdict is carried
    if (held and held[0] is path and held[1] is field and held[2] == disks
            and held[3] <= state.progress_s and held[4] <= state.rotations_done):
        return None
    hit = check_path_collision(path, state.progress_s, belief, disks, state.rotations_done)
    state.clear_check = None if hit is not None else (
        path, field, disks, state.progress_s, state.rotations_done)
    return hit


def free_waypose(route: AStarPath, s_w: float, checker: CollisionChecker) -> Optional[Pose2D]:
    """The waypose at s_w, or, when `pose_blocked`, the first free pose at a route vertex
    behind it (`waypose_at` of the vertex's arc length) short of the route's start, the
    vehicle's own cell; None when none is free."""
    vertices = route.cumulative_s[1:]
    behind = vertices[vertices < min(s_w, route.length)][::-1]
    for s in [s_w, *behind.tolist()]:
        pose = waypose_at(route, s)
        if not checker.pose_blocked(pose.x, pose.y, pose.yaw):
            return pose
    return None


def compute_replan_start(state: MissionState, s_coll_found: Optional[float],
                         s_div_found: Optional[float], alpha: float
                         ) -> Tuple[Pose2D, float]:
    """Start pose for the next plan, at alpha * min(remaining, s_coll, s_div);
    at s_plan 0 nothing of the current path is kept, so it is the vehicle's."""
    if state.current_path is None:
        raise ValueError("nothing to replan from")
    remaining = state.current_path.total_drive_length - state.progress_s
    bound = min(remaining,
                s_coll_found if s_coll_found is not None else math.inf,
                s_div_found if s_div_found is not None else math.inf)
    s_plan = alpha * max(bound, 0.0)
    if s_plan > 0.0:
        return state.current_path.pose_at(state.progress_s + s_plan), s_plan
    return state.vehicle_pose, s_plan


def _goal_reached(state: MissionState, planner_cfg: PlannerConfig) -> bool:
    dp = state.vehicle_pose.distance_to(state.goal)
    dyaw = abs(normalize_angle(state.vehicle_pose.yaw - state.goal.yaw))
    return dp <= planner_cfg.xy_resolution and dyaw <= planner_cfg.yaw_resolution


def mission_tick(state: MissionState, belief: OccupancyGrid, mission_cfg: MissionConfig,
                 planner_cfg: PlannerConfig, mode: Tuple[str, str], vehicle: VehicleSpec
                 ) -> TickResult:
    """One decision step: refresh the 2D route, test the triggers, replan.

    mode is a `cli.MODES` row: the planner mode and the navigation (NAV_*);
    an unknown navigation is a ValueError.  A failed tick's reason is the
    run's stop cause: "route lost: ..." when the 2D route fails,
    "planner failure: ..." when the replan finds no waypose or no path.

    The distance map is memoized on the belief (see `OccupancyGrid.derived`).
    The coarse route is the previous tick's route, or its suffix, while the
    map object is the same and the vehicle's cell lies on that route, else a
    walk along the map's successor table (`extract_astar_path`).  Route
    divergence against the previous tick (never for the same route object),
    an upcoming path collision, missing path, or accumulated progress trigger
    a replan; a path found clear is not checked again until the path, the
    belief's obstacle field object or the disks change (`carried_path_collision`).
    """
    planner_mode, nav_mode = mode
    if nav_mode not in (NAV_NONE, NAV_WAYPOINT, NAV_EARLY_STOP):
        raise ValueError(f"unknown navigation mode {nav_mode!r}")
    if _goal_reached(state, planner_cfg):
        return TickResult(status="goal_reached")

    try:
        dmap = build_distance_map(belief, state.goal, planner_cfg)
        astar = extract_astar_path(dmap, state.vehicle_pose, state.prev_astar)
    except (GoalBlockedError, NoRouteError) as exc:
        return TickResult(status="failed", reason=f"route lost: {exc}")

    s_div_found = None
    if state.prev_astar is not None and nav_mode != NAV_NONE and astar is not state.prev_astar:
        s_div_found = detect_divergence(state.prev_astar, astar, mission_cfg.d_div)
    state.prev_astar = astar

    s_coll_found = None
    if state.current_path is not None:
        s_coll_found = carried_path_collision(state, belief, vehicle.disks)

    if state.current_path is None:
        cause = "initial"
    elif s_coll_found is not None and s_coll_found <= mission_cfg.s_coll:
        cause = "collision"
    elif s_div_found is not None:
        cause = "divergence"
    elif (nav_mode != NAV_NONE and not state.path_to_goal
          and state.odometer - state.last_replan_odometer >= mission_cfg.s_t):
        cause = "refresh"  # navigation refresh: moot once planned to the goal
    elif (state.current_path.total_drive_length - state.progress_s <= 1e-9
          and state.rotations_done >= state.current_path.n_rotations):
        cause = "goal_mode"  # ran off the end of a truncated path
    else:
        return TickResult(status="keep_driving")

    start, s_plan = state.vehicle_pose, 0.0   # no path, or ran off its end
    if cause not in ("initial", "goal_mode"):
        start, s_plan = compute_replan_start(state, s_coll_found, s_div_found,
                                             mission_cfg.alpha)
    prefix, (start_dir, start_kappa) = PlannedPath(), (0, 0.0)
    if s_plan > 0.0:   # keep the current path up to the start, in its gear
        s_start = state.progress_s + s_plan
        prefix = state.current_path.slice(state.progress_s, s_start, state.rotations_done)
        start_dir, start_kappa = state.current_path.gear_at(s_start)

    # stop-rule selection from the planning start pose's route distance
    s_g_start = dmap.route_distance(start.x, start.y)
    horizon = None
    goal = state.goal
    if s_g_start >= mission_cfg.s_lim:
        if nav_mode == NAV_EARLY_STOP:
            horizon = mission_cfg.s_w
        elif nav_mode == NAV_WAYPOINT and astar.points.shape[0] >= 2:
            goal = free_waypose(astar, mission_cfg.s_w,
                                CollisionChecker(belief, vehicle.disks))
            if goal is None:
                return TickResult(status="failed", cause=cause, s_plan=s_plan,
                                  reason="planner failure: no free waypose on the route")

    start_steer = math.atan(start_kappa * vehicle.wheelbase)
    try:
        planned, stats = plan(belief, start, goal, vehicle, planner_cfg,
                              mode=planner_mode, horizon=horizon,
                              start_direction=start_dir, start_steer=start_steer)
    except PlannerFailure as exc:      # a failed call is counted, with its effort
        return TickResult(status="failed", cause=cause, s_plan=s_plan,
                          nodes=exc.stats.nodes_expanded, seconds=exc.stats.wall_time_s,
                          reason=f"planner failure: {exc}", s_div=s_div_found,
                          s_coll=s_coll_found)

    state.current_path = prefix.concat(planned)
    state.progress_s = 0.0
    state.rotations_done = 0
    state.last_replan_odometer = state.odometer
    state.path_to_goal = horizon is None and goal is state.goal
    return TickResult(status="replanned", cause=cause, s_plan=s_plan,
                      nodes=stats.nodes_expanded, seconds=stats.wall_time_s,
                      s_div=s_div_found, s_coll=s_coll_found)
