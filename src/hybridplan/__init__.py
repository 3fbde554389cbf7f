"""Kinematic path planning with guided Hybrid A* and in-place rotations."""

from .geometry import Pose2D, normalize_angle
from .grid import (FREE, OCCUPIED, UNKNOWN, OccupancyGrid, Raster, distance_transform,
                   load_map, raytrace_reveal, voronoi_field)
from .heuristic import (AStarPath, DistanceMap, GoalBlockedError, NoRouteError,
                        build_distance_map, detect_divergence, extract_astar_path,
                        waypose_at)
from .mission import (MissionConfig, MissionState, TickResult, check_path_collision,
                      compute_replan_start, mission_tick)
from .planner import (BudgetExceededError, DriveSegment, NoPathError, PlannedPath,
                      PlannerConfig, PlannerFailure, RotationSegment, SearchStats,
                      analytic_expansions, cost_of, field_cap, geometric_extension, plan)
from .reeds_shepp import rs_all_paths, rs_path_length, sample_path
from .simulate import (MetricsReport, Run, ScenarioSpec, kappa_dot_rms, proximity_stats,
                       run_scenario)
from .vehicle import CollisionChecker, DiskSet, VehicleSpec

__all__ = [
    "Pose2D", "normalize_angle",
    "FREE", "OCCUPIED", "UNKNOWN", "OccupancyGrid", "Raster",
    "distance_transform", "load_map", "raytrace_reveal", "voronoi_field",
    "AStarPath", "DistanceMap", "GoalBlockedError", "NoRouteError",
    "build_distance_map", "detect_divergence", "extract_astar_path", "waypose_at",
    "MissionConfig", "MissionState", "TickResult", "check_path_collision",
    "compute_replan_start", "mission_tick",
    "BudgetExceededError", "DriveSegment", "NoPathError", "PlannedPath",
    "PlannerConfig", "PlannerFailure", "RotationSegment", "SearchStats",
    "analytic_expansions", "cost_of", "field_cap", "geometric_extension", "plan",
    "rs_all_paths", "rs_path_length", "sample_path",
    "MetricsReport", "Run", "ScenarioSpec", "kappa_dot_rms", "proximity_stats",
    "run_scenario",
    "CollisionChecker", "DiskSet", "VehicleSpec",
]
