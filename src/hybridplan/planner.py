"""Hybrid A* search over (x, y, yaw) with drive and in-place rotation primitives.

Nodes carry continuous poses reached by kinematically exact motion
primitives and are deduplicated on a coarse (x, y, yaw) lattice.  The
search terminates at the goal lattice cell, through an analytic expansion
(shortest bounded-curvature path, plus the drive-rotate-drive connection
when rotations are enabled), or early once the 2D cost-to-goal heuristic
has dropped by a requested distance.
"""
from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from .geometry import (Pose2D, iter_segment_samples, move_along_arc, normalize_angle,
                       normalize_angles, sample_path)
from .grid import OccupancyGrid
from .heuristic import DistanceMap, build_distance_map
from .reeds_shepp import rs_all_paths, rs_path_length
from .vehicle import DiskSet, VehicleSpec, cell_pad, make_disk_set

STANDARD = "standard"
EXTENDED = "extended"

STOP_AT_GOAL = "goal"
STOP_EARLY = "early_stop"


class PlannerFailure(RuntimeError):
    pass


class NoPathError(PlannerFailure):
    def __init__(self, msg: str = "no path") -> None:
        super().__init__(msg)


class BudgetExceededError(PlannerFailure):
    def __init__(self, msg: str = "budget exceeded") -> None:
        super().__init__(msg)


@dataclass(frozen=True)
class PlannerConfig:
    xy_resolution: float = 0.625            # [m] lattice cell for deduplication
    yaw_resolution: float = math.radians(10.0)
    arc_length: float = 1.25                 # [m] drive primitive length (2 cells)
    n_steer: int = 5                         # steer angles incl. 0, symmetric
    collision_step: float = 0.15625          # [m] sub-sampling along primitives
    w_reverse: float = 1.0                   # extra cost factor on reverse arcs
    w_switch: float = 5.0                    # direction change penalty
    w_steer: float = 1.0                     # per-radian steering penalty
    w_steer_change: float = 1.5              # per-radian steering-rate penalty
    w_rotation_fixed: float = 5.0            # model switch, ~5 s at 1 m/s
    w_rotation_rate: float = 2.0             # per-radian rotation penalty
    delta_phi: float = math.radians(90.0)    # rotation primitive quantum
    f_ext: int = 5                           # rotations every f_ext-th expansion
    analytic_radius: float = 30.0            # [m] always try analytic below this h
    analytic_period: int = 0                 # also try every k-th pop when > 0
    rs_heuristic_radius: float = 12.0        # [m] add the RS term to h below this
    extension_segment_length: float = 60.0   # [m] heading-line segment (half = 30)
    node_budget: int = 500_000
    inflation_radius: float = 1.0            # [m] 2D heuristic obstacle inflation

    def __post_init__(self) -> None:
        for name in ("xy_resolution", "yaw_resolution", "arc_length", "collision_step",
                     "delta_phi", "analytic_radius", "extension_segment_length"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("w_reverse", "w_switch", "w_steer", "w_steer_change",
                     "w_rotation_fixed", "w_rotation_rate", "rs_heuristic_radius",
                     "inflation_radius"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if self.n_steer < 3 or self.n_steer % 2 == 0:
            raise ValueError("n_steer must be an odd number >= 3")
        if self.f_ext < 1:
            raise ValueError("f_ext must be >= 1")
        if self.node_budget < 1:
            raise ValueError("node_budget must be >= 1")
        if self.analytic_period < 0:
            raise ValueError("analytic_period must be >= 0")

    def steer_angles(self, max_steer: float) -> Tuple[float, ...]:
        half = (self.n_steer - 1) // 2
        return tuple(max_steer * i / half for i in range(-half, half + 1))

    def rotation_angles(self) -> Tuple[float, ...]:
        n_max = int(round(2.0 * math.pi / self.delta_phi))
        angles = []
        for n in range(1, n_max):
            a = normalize_angle(n * self.delta_phi)
            if abs(a) > 1e-9 and not any(abs(a - b) < 1e-9 for b in angles):
                angles.append(a)
        return tuple(sorted(angles))


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    nodes_created: int = 0
    wall_time_s: float = 0.0


# --------------------------------------------------------------------------
# Path data model
# --------------------------------------------------------------------------

@dataclass
class DriveSegment:
    """Continuous driving at one gear; per-interval curvature samples."""

    xs: np.ndarray
    ys: np.ndarray
    yaws: np.ndarray
    kappas: np.ndarray        # (n-1,) curvature of each sample interval
    s: np.ndarray             # (n,) cumulative arc length within the segment
    direction: int            # +1 forward, -1 reverse

    @property
    def arc_length(self) -> float:
        return float(self.s[-1])

    def pose_at(self, offset: float) -> Pose2D:
        """Exact pose at a local arc offset (re-integrates the sub-arc)."""
        offset = min(max(offset, 0.0), self.arc_length)
        i = int(np.searchsorted(self.s, offset, side="right")) - 1
        i = min(max(i, 0), len(self.kappas) - 1) if len(self.kappas) else 0
        ds = (offset - self.s[i]) * self.direction
        x, y, yaw = move_along_arc(float(self.xs[i]), float(self.ys[i]),
                                   float(self.yaws[i]), float(self.kappas[i]), ds)
        return Pose2D(x, y, yaw)

    def kappa_at(self, offset: float) -> float:
        if len(self.kappas) == 0:
            return 0.0
        i = int(np.searchsorted(self.s, offset, side="right")) - 1
        return float(self.kappas[min(max(i, 0), len(self.kappas) - 1)])


@dataclass
class RotationSegment:
    """In-place rotation about the rear-axle point; moves no distance."""

    x: float
    y: float
    from_yaw: float
    to_yaw: float
    delta: float


Segment = Union[DriveSegment, RotationSegment]


@dataclass
class PlannedPath:
    segments: List[Segment] = field(default_factory=list)

    @property
    def total_drive_length(self) -> float:
        return sum(seg.arc_length for seg in self.segments if isinstance(seg, DriveSegment))

    @property
    def n_rotations(self) -> int:
        return sum(1 for seg in self.segments if isinstance(seg, RotationSegment))

    @property
    def n_direction_switches(self) -> int:
        switches = 0
        last = 0
        for seg in self.segments:
            if isinstance(seg, RotationSegment):
                last = 0  # a rotation resets the gear
                continue
            if last != 0 and seg.direction != last:
                switches += 1
            last = seg.direction
        return switches

    def start_pose(self) -> Optional[Pose2D]:
        for seg in self.segments:
            if isinstance(seg, DriveSegment):
                return Pose2D(float(seg.xs[0]), float(seg.ys[0]), float(seg.yaws[0]))
            return Pose2D(seg.x, seg.y, seg.from_yaw)
        return None

    def end_pose(self) -> Optional[Pose2D]:
        for seg in reversed(self.segments):
            if isinstance(seg, DriveSegment):
                return Pose2D(float(seg.xs[-1]), float(seg.ys[-1]), float(seg.yaws[-1]))
            return Pose2D(seg.x, seg.y, seg.to_yaw)
        return None

    def pose_at(self, s: float) -> Pose2D:
        """Pose at drive arc length s (rotations at exactly s still pending)."""
        remaining = max(s, 0.0)
        last: Optional[Pose2D] = None
        for seg in self.segments:
            if isinstance(seg, RotationSegment):
                if remaining > 0.0:
                    last = Pose2D(seg.x, seg.y, seg.to_yaw)
                continue
            if remaining <= seg.arc_length:
                return seg.pose_at(remaining)
            remaining -= seg.arc_length
            last = Pose2D(float(seg.xs[-1]), float(seg.ys[-1]), float(seg.yaws[-1]))
        end = self.end_pose()
        return last if end is None else end

    def slice(self, s0: float, s1: float) -> "PlannedPath":
        """Sub-path between drive arc lengths s0 and s1.

        Rotations strictly inside the window are kept; rotations exactly at
        the boundaries belong to the neighbors (pose_at semantics).
        """
        out = PlannedPath()
        acc = 0.0
        for seg in self.segments:
            if isinstance(seg, RotationSegment):
                if s0 < acc <= s1 and (acc < s1 or math.isclose(s1, self.total_drive_length)):
                    out.segments.append(seg)
                continue
            lo = max(s0 - acc, 0.0)
            hi = min(s1 - acc, seg.arc_length)
            if hi - lo > 1e-12:
                out.segments.append(_clip_drive(seg, lo, hi))
            acc += seg.arc_length
        return out

    def concat(self, other: "PlannedPath") -> "PlannedPath":
        merged = PlannedPath(list(self.segments))
        for seg in other.segments:
            _append_segment(merged.segments, seg)
        return merged


def _clip_drive(seg: DriveSegment, lo: float, hi: float) -> DriveSegment:
    """Exact sub-segment between local offsets lo and hi."""
    inner = (seg.s > lo + 1e-12) & (seg.s < hi - 1e-12)
    first = seg.pose_at(lo)
    last = seg.pose_at(hi)
    xs = np.concatenate(([first.x], seg.xs[inner], [last.x]))
    ys = np.concatenate(([first.y], seg.ys[inner], [last.y]))
    yaws = np.concatenate(([first.yaw], seg.yaws[inner], [last.yaw]))
    s_inner = seg.s[inner]
    s = np.concatenate(([0.0], s_inner - lo, [hi - lo]))
    idx = np.searchsorted(seg.s, np.concatenate(([lo], s_inner)), side="right") - 1
    idx = np.clip(idx, 0, max(len(seg.kappas) - 1, 0))
    kappas = seg.kappas[idx] if len(seg.kappas) else np.zeros(0)
    return DriveSegment(xs, ys, yaws, kappas, s, seg.direction)


def _append_segment(segments: List[Segment], seg: Segment) -> None:
    """Append, merging consecutive same-direction drive segments."""
    if (segments and isinstance(seg, DriveSegment) and isinstance(segments[-1], DriveSegment)
            and segments[-1].direction == seg.direction):
        prev = segments[-1]
        segments[-1] = DriveSegment(
            xs=np.concatenate((prev.xs, seg.xs[1:])),
            ys=np.concatenate((prev.ys, seg.ys[1:])),
            yaws=np.concatenate((prev.yaws, seg.yaws[1:])),
            kappas=np.concatenate((prev.kappas, seg.kappas)),
            s=np.concatenate((prev.s, seg.s[1:] + prev.arc_length)),
            direction=seg.direction,
        )
    else:
        segments.append(seg)


class PathBuilder:
    """Accumulates pose samples and rotations into a PlannedPath."""

    def __init__(self, start: Pose2D) -> None:
        self._anchor = start
        self._path = PlannedPath()
        self._run: List[Tuple[float, float, float, float]] = []  # x, y, yaw, kappa-in
        self._run_dir = 0

    def _flush(self) -> None:
        if not self._run:
            return
        prev = self._anchor
        xs = [prev.x]
        ys = [prev.y]
        yaws = [prev.yaw]
        kappas = []
        s = [0.0]
        for x, y, yaw, kappa in self._run:
            ds = math.hypot(x - xs[-1], y - ys[-1])
            if kappa != 0.0:
                # recover arc length from the chord: 2/|k| * asin(|k| * chord / 2)
                half = min(abs(kappa) * ds / 2.0, 1.0)
                ds = 2.0 / abs(kappa) * math.asin(half)
            xs.append(x)
            ys.append(y)
            yaws.append(yaw)
            kappas.append(kappa)
            s.append(s[-1] + ds)
        _append_segment(self._path.segments, DriveSegment(
            np.array(xs), np.array(ys), np.array(yaws),
            np.array(kappas), np.array(s), self._run_dir))
        self._anchor = Pose2D(xs[-1], ys[-1], yaws[-1])
        self._run = []
        self._run_dir = 0

    def add_drive_sample(self, x: float, y: float, yaw: float, kappa: float, direction: int) -> None:
        if self._run and direction != self._run_dir:
            self._flush()
        self._run_dir = direction
        self._run.append((x, y, yaw, kappa))

    def add_rotation(self, delta: float) -> None:
        self._flush()
        pose = self._anchor
        to_yaw = normalize_angle(pose.yaw + delta)
        self._path.segments.append(RotationSegment(pose.x, pose.y, pose.yaw, to_yaw, delta))
        self._anchor = Pose2D(pose.x, pose.y, to_yaw)

    def finish(self) -> PlannedPath:
        self._flush()
        return self._path


# --------------------------------------------------------------------------
# Motions and costs
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DriveMotion:
    steer: float
    direction: int       # +1 forward, -1 reverse
    arc_length: float    # unsigned


@dataclass(frozen=True)
class RotationMotion:
    delta_yaw: float


Motion = Union[DriveMotion, RotationMotion]


def cost_of(motion: Motion, config: PlannerConfig,
            parent_direction: int = 0, parent_steer: float = 0.0) -> float:
    """Movement cost of one primitive given the parent's gear and steering."""
    if isinstance(motion, RotationMotion):
        return config.w_rotation_fixed + config.w_rotation_rate * abs(motion.delta_yaw)
    cost = motion.arc_length * (1.0 + (config.w_reverse if motion.direction < 0 else 0.0))
    if parent_direction != 0 and motion.direction != parent_direction:
        cost += config.w_switch
    cost += config.w_steer * abs(motion.steer)
    cost += config.w_steer_change * abs(motion.steer - parent_steer)
    return cost


def geometric_extension(current: Pose2D, goal: Pose2D, seg_len: float
                        ) -> Optional[Tuple[Tuple[float, float], float, float, float]]:
    """Drive-rotate-drive connection through the heading-line intersection.

    Two line segments of half-length seg_len/2 run through the current and
    goal poses along their headings.  If they intersect, the intersection is
    the rotation point; returns (point, pre_dist, delta_yaw, post_dist) with
    signed distances along the respective headings, else None.
    """
    if seg_len <= 0.0:
        raise ValueError("seg_len must be positive")
    half = seg_len / 2.0
    ca, sa = math.cos(current.yaw), math.sin(current.yaw)
    cb, sb = math.cos(goal.yaw), math.sin(goal.yaw)
    det = ca * sb - sa * cb
    if abs(det) < 1e-9:
        return None  # parallel headings never intersect
    dx = goal.x - current.x
    dy = goal.y - current.y
    pre = (dx * sb - dy * cb) / det        # along current heading to the crossing
    post_at = (dx * sa - dy * ca) / det    # along goal heading at the crossing
    if abs(pre) > half or abs(post_at) > half:
        return None
    point = (current.x + pre * ca, current.y + pre * sa)
    post = -post_at                        # remaining signed travel to the goal
    delta = normalize_angle(goal.yaw - current.yaw)
    return point, pre, delta, post


# --------------------------------------------------------------------------
# Search internals
# --------------------------------------------------------------------------

class _Node:
    __slots__ = ("x", "y", "yaw", "g", "h", "hd", "direction", "steer",
                 "parent", "motion", "key")

    def __init__(self, x, y, yaw, g, h, hd, direction, steer, parent, motion, key):
        self.x = x
        self.y = y
        self.yaw = yaw
        self.g = g
        self.h = h
        self.hd = hd
        self.direction = direction
        self.steer = steer
        self.parent = parent
        self.motion = motion
        self.key = key


class _PrimitiveTable:
    """Sub-sampled displacement tables for every steer/direction primitive."""

    def __init__(self, config: PlannerConfig, vehicle: VehicleSpec) -> None:
        self.wheelbase = vehicle.wheelbase
        steers = config.steer_angles(vehicle.max_steer)
        n_sub = max(1, math.ceil(config.arc_length / config.collision_step))
        motions: List[DriveMotion] = []
        rel = []
        for direction in (1, -1):
            for steer in steers:
                motions.append(DriveMotion(steer=steer, direction=direction,
                                           arc_length=config.arc_length))
                kappa = math.tan(steer) / vehicle.wheelbase
                rows = []
                for i in range(1, n_sub + 1):
                    ds = config.arc_length * i / n_sub * direction
                    rows.append(move_along_arc(0.0, 0.0, 0.0, kappa, ds))
                rel.append(rows)
        arr = np.array(rel)                          # (P, K, 3)
        self.motions = motions
        self.dx = arr[:, :, 0]
        self.dy = arr[:, :, 1]
        self.dyaw = arr[:, :, 2]
        self.cos_dyaw = np.cos(self.dyaw)
        self.sin_dyaw = np.sin(self.dyaw)
        self.n_primitives = len(motions)
        self.n_sub = n_sub


class _CollisionChecker:
    """Vectorized disk tests against the obstacle distance field."""

    def __init__(self, belief: OccupancyGrid, disks: DiskSet) -> None:
        self.field = belief.distance_field()
        self.res = belief.resolution
        self.ox = belief.origin.x
        self.oy = belief.origin.y
        self.h, self.w = self.field.shape
        self.disks = disks
        self.threshold = disks.radius + cell_pad(self.res)
        self.swept_threshold = disks.swept_radius + cell_pad(self.res)
        self.offsets = np.array(disks.centers)

    def field_at(self, x: float, y: float) -> float:
        ix = math.floor((x - self.ox) / self.res)
        iy = math.floor((y - self.oy) / self.res)
        if not (0 <= ix < self.w and 0 <= iy < self.h):
            return -math.inf
        return float(self.field[iy, ix])

    def pose_blocked(self, x: float, y: float, yaw: float) -> bool:
        c, s = math.cos(yaw), math.sin(yaw)
        for off in self.disks.centers:
            if self.field_at(x + off * c, y + off * s) < self.threshold:
                return True
        return False

    def rotation_blocked(self, x: float, y: float) -> bool:
        return self.field_at(x, y) < self.swept_threshold

    def batch_blocked(self, xs: np.ndarray, ys: np.ndarray,
                      cos_yaw: np.ndarray, sin_yaw: np.ndarray) -> np.ndarray:
        """Per-pose disk test for flat pose arrays; True where blocked."""
        cx = xs[:, None] + self.offsets * cos_yaw[:, None]
        cy = ys[:, None] + self.offsets * sin_yaw[:, None]
        ix = np.floor((cx - self.ox) / self.res).astype(np.int64)
        iy = np.floor((cy - self.oy) / self.res).astype(np.int64)
        inside = (ix >= 0) & (ix < self.w) & (iy >= 0) & (iy < self.h)
        dist = np.full(ix.shape, -np.inf)
        dist[inside] = self.field[iy[inside], ix[inside]]
        return (dist < self.threshold).any(axis=1)

    def poses_blocked(self, xs: np.ndarray, ys: np.ndarray, yaws: np.ndarray) -> bool:
        """True when any pose of the arrays is blocked."""
        return bool(self.batch_blocked(xs, ys, np.cos(yaws), np.sin(yaws)).any())


def _yaw_bins(config: PlannerConfig) -> int:
    return int(math.ceil(2.0 * math.pi / config.yaw_resolution))


def _make_key(x: float, y: float, yaw: float, ox: float, oy: float,
              res: float, yaw_res: float, n_bins: int) -> Tuple[int, int, int]:
    ix = int(math.floor((x - ox) / res))
    iy = int(math.floor((y - oy) / res))
    ib = int(math.floor((yaw + math.pi) / yaw_res)) % n_bins
    return ix, iy, ib


# --------------------------------------------------------------------------
# plan()
# --------------------------------------------------------------------------

def plan(belief: OccupancyGrid, start: Pose2D, goal: Pose2D, vehicle: VehicleSpec,
         config: PlannerConfig = PlannerConfig(), mode: str = STANDARD,
         stop_rule: str = STOP_AT_GOAL, s_w: float = 55.0,
         distance_map: Optional[DistanceMap] = None,
         start_direction: int = 0, start_steer: float = 0.0,
         ) -> Tuple[PlannedPath, SearchStats]:
    """Search a kinematically feasible path on the belief map.

    stop_rule "goal" terminates on the goal lattice cell or a collision-free
    analytic connection; "early_stop" terminates at the first expanded node
    whose 2D cost-to-goal has dropped more than s_w below the start's.
    Raises NoPathError / BudgetExceededError on failure.
    """
    t_begin = time.perf_counter()
    stats = SearchStats()
    disks = make_disk_set(vehicle)
    checker = _CollisionChecker(belief, disks)

    if checker.pose_blocked(start.x, start.y, start.yaw):
        raise PlannerFailure("start in collision")
    if stop_rule == STOP_AT_GOAL and checker.pose_blocked(goal.x, goal.y, goal.yaw):
        raise PlannerFailure("goal in collision")

    dmap = distance_map
    if dmap is None:
        dmap = build_distance_map(belief, goal, config.xy_resolution, config.inflation_radius)

    hd_start = dmap.route_distance(start.x, start.y)
    if not math.isfinite(hd_start):
        raise NoPathError("no path")

    turn_radius = vehicle.min_turn_radius
    table = _PrimitiveTable(config, vehicle)
    rotation_angles = config.rotation_angles() if mode == EXTENDED else ()
    n_bins = _yaw_bins(config)
    ox, oy = belief.origin.x, belief.origin.y

    def key_of(x: float, y: float, yaw: float) -> Tuple[int, int, int]:
        return _make_key(x, y, yaw, ox, oy, config.xy_resolution,
                         config.yaw_resolution, n_bins)

    def heuristic(x: float, y: float, yaw: float) -> Tuple[float, float]:
        hd = dmap.value_at(x, y)
        euclid = math.hypot(goal.x - x, goal.y - y)
        h = hd if math.isfinite(hd) else euclid
        if euclid <= config.rs_heuristic_radius:
            rs = rs_path_length(Pose2D(x, y, yaw), goal, turn_radius)
            h = max(h, rs)
        else:
            h = max(h, euclid)
        return h, hd

    goal_key = key_of(goal.x, goal.y, goal.yaw)
    h0, hd0 = heuristic(start.x, start.y, start.yaw)
    root = _Node(start.x, start.y, start.yaw, 0.0, h0, hd0,
                 start_direction, start_steer, None, None, key_of(start.x, start.y, start.yaw))
    stats.nodes_created = 1

    best_g = {root.key: 0.0}
    counter = 0
    open_heap = [(root.g + root.h, root.h, counter, root)]
    analytic_tried = set()

    def finish(path: PlannedPath) -> Tuple[PlannedPath, SearchStats]:
        stats.wall_time_s = time.perf_counter() - t_begin
        return path, stats

    while open_heap:
        _, _, _, node = heapq.heappop(open_heap)
        if node.g > best_g.get(node.key, math.inf) + 1e-12:
            continue
        stats.nodes_expanded += 1
        if stats.nodes_expanded > config.node_budget:
            stats.wall_time_s = time.perf_counter() - t_begin
            raise BudgetExceededError()

        if stop_rule == STOP_EARLY:
            if node.hd is not None and math.isfinite(node.hd) and hd_start - node.hd > s_w:
                return finish(_reconstruct(node, table, config))
            if node.key == goal_key:
                return finish(_reconstruct(node, table, config))
        else:
            if node.key == goal_key:
                return finish(_reconstruct(node, table, config))
            periodic = (config.analytic_period > 0
                        and stats.nodes_expanded % config.analytic_period == 0)
            attempt = node.h < config.analytic_radius or periodic
            if attempt and (node.key not in analytic_tried or periodic):
                analytic_tried.add(node.key)
                suffix = analytic_expansions(node_pose(node), goal, checker, config,
                                             turn_radius, mode, vehicle.max_steer,
                                             parent_direction=node.direction,
                                             parent_steer=node.steer)
                if suffix is not None:
                    prefix = _reconstruct(node, table, config)
                    return finish(prefix.concat(suffix))

        # drive expansions, vectorized over the primitive table
        c, s = math.cos(node.yaw), math.sin(node.yaw)
        world_x = node.x + table.dx * c - table.dy * s
        world_y = node.y + table.dx * s + table.dy * c
        cos_w = c * table.cos_dyaw - s * table.sin_dyaw
        sin_w = s * table.cos_dyaw + c * table.sin_dyaw
        blocked = checker.batch_blocked(
            world_x.reshape(-1), world_y.reshape(-1),
            cos_w.reshape(-1), sin_w.reshape(-1)
        ).reshape(world_x.shape).any(axis=1)

        for p in range(table.n_primitives):
            if blocked[p]:
                continue
            motion = table.motions[p]
            nx = float(world_x[p, -1])
            ny = float(world_y[p, -1])
            nyaw = normalize_angle(node.yaw + float(table.dyaw[p, -1]))
            nkey = key_of(nx, ny, nyaw)
            g2 = node.g + cost_of(motion, config, node.direction, node.steer)
            if g2 >= best_g.get(nkey, math.inf) - 1e-12:
                continue
            h2, hd2 = heuristic(nx, ny, nyaw)
            child = _Node(nx, ny, nyaw, g2, h2, hd2, motion.direction,
                          motion.steer, node, motion, nkey)
            best_g[nkey] = g2
            stats.nodes_created += 1
            counter += 1
            heapq.heappush(open_heap, (g2 + h2, h2, counter, child))

        if rotation_angles and stats.nodes_expanded % config.f_ext == 0:
            if not checker.rotation_blocked(node.x, node.y):
                for delta in rotation_angles:
                    nyaw = normalize_angle(node.yaw + delta)
                    nkey = key_of(node.x, node.y, nyaw)
                    motion = RotationMotion(delta_yaw=delta)
                    g2 = node.g + cost_of(motion, config, node.direction, node.steer)
                    if g2 >= best_g.get(nkey, math.inf) - 1e-12:
                        continue
                    h2, hd2 = heuristic(node.x, node.y, nyaw)
                    child = _Node(node.x, node.y, nyaw, g2, h2, hd2, 0, 0.0,
                                  node, motion, nkey)
                    best_g[nkey] = g2
                    stats.nodes_created += 1
                    counter += 1
                    heapq.heappush(open_heap, (g2 + h2, h2, counter, child))

    stats.wall_time_s = time.perf_counter() - t_begin
    raise NoPathError()


def node_pose(node: _Node) -> Pose2D:
    return Pose2D(node.x, node.y, node.yaw)


def _reconstruct(node: _Node, table: _PrimitiveTable, config: PlannerConfig) -> PlannedPath:
    """Replay the parent chain into a pose-continuous path."""
    chain: List[_Node] = []
    seen = set()
    cur = node
    while cur is not None:
        assert id(cur) not in seen, "cyclic parent chain"
        seen.add(id(cur))
        chain.append(cur)
        cur = cur.parent
    chain.reverse()

    builder = PathBuilder(node_pose(chain[0]))
    for nd in chain[1:]:
        parent = nd.parent
        if isinstance(nd.motion, RotationMotion):
            builder.add_rotation(nd.motion.delta_yaw)
            continue
        motion = nd.motion
        kappa = math.tan(motion.steer) / table.wheelbase
        n_sub = table.n_sub
        x, y, yaw = parent.x, parent.y, parent.yaw
        step = motion.arc_length / n_sub * motion.direction
        for _ in range(n_sub):
            x, y, yaw = move_along_arc(x, y, yaw, kappa, step)
            builder.add_drive_sample(x, y, normalize_angle(yaw), kappa, motion.direction)
    return builder.finish()


def rs_candidate_cost(path, config: PlannerConfig, max_steer: float,
                      parent_direction: int, parent_steer: float) -> float:
    """Movement cost of an analytic suffix under the planner cost model."""
    cost = 0.0
    direction = parent_direction
    steer = parent_steer
    for seg in path.segments:
        seg_steer = 0.0
        if seg.kind == "left":
            seg_steer = max_steer
        elif seg.kind == "right":
            seg_steer = -max_steer
        cost += cost_of(DriveMotion(seg_steer, seg.direction, seg.length),
                        config, direction, steer)
        direction = seg.direction
        steer = seg_steer
    return cost


def analytic_expansions(pose: Pose2D, goal: Pose2D, checker: _CollisionChecker,
                        config: PlannerConfig, turn_radius: float, mode: str,
                        max_steer: float, parent_direction: int = 0,
                        parent_steer: float = 0.0) -> Optional[PlannedPath]:
    """Collision-free analytic connection from pose to goal.

    The bounded-curvature words are tried shortest first, so the feasible
    suffix is the shortest one; with rotations enabled the drive-rotate-drive
    geometric extension competes against it under the movement cost model.
    """
    best_path: Optional[PlannedPath] = None
    best_cost = math.inf

    # every candidate starts at pose, so a blocked start rules them all out
    start_free = not checker.poses_blocked(np.array([pose.x]), np.array([pose.y]),
                                           np.array([pose.yaw]))
    for cand in rs_all_paths(pose, goal, turn_radius):
        if cand.total_length >= 1e6 or not start_free:
            break
        if _rs_free(cand, pose, checker, config.collision_step):
            best_cost = rs_candidate_cost(cand, config, max_steer,
                                          parent_direction, parent_steer)
            best_path = _rs_suffix_path(pose, sample_path(cand, pose, config.collision_step))
            break

    if mode == EXTENDED:
        ext = geometric_extension(pose, goal, config.extension_segment_length)
        if ext is not None:
            point, pre, delta, post = ext
            cost = _extension_cost(pre, delta, post, config, parent_direction, parent_steer)
            if cost < best_cost and _extension_free(pose, goal, point, pre, delta, post, checker, config):
                best_path = _extension_path(pose, goal, point, pre, delta, post, config)
                best_cost = cost

    return best_path


def _rs_free(cand, pose: Pose2D, checker: _CollisionChecker, step: float) -> bool:
    """Collision test of a candidate's samples, stopping at the first blocked segment."""
    for seg in iter_segment_samples(cand, pose, step):
        if checker.poses_blocked(seg.xs, seg.ys, normalize_angles(seg.yaws)):
            return False
    return True


def _rs_suffix_path(pose: Pose2D, samples) -> PlannedPath:
    builder = PathBuilder(pose)
    for p, kappa, direction in samples[1:]:
        builder.add_drive_sample(p.x, p.y, p.yaw, kappa, direction)
    return builder.finish()


def _extension_cost(pre: float, delta: float, post: float, config: PlannerConfig,
                    parent_direction: int, parent_steer: float) -> float:
    cost = 0.0
    direction = parent_direction
    steer = parent_steer
    if abs(pre) > 1e-12:
        d = 1 if pre >= 0.0 else -1
        cost += cost_of(DriveMotion(0.0, d, abs(pre)), config, direction, steer)
        direction, steer = d, 0.0
    cost += cost_of(RotationMotion(delta), config, direction, steer)
    direction, steer = 0, 0.0
    if abs(post) > 1e-12:
        d = 1 if post >= 0.0 else -1
        cost += cost_of(DriveMotion(0.0, d, abs(post)), config, direction, steer)
    return cost


def _extension_free(pose: Pose2D, goal: Pose2D, point: Tuple[float, float],
                    pre: float, delta: float, post: float,
                    checker: _CollisionChecker, config: PlannerConfig) -> bool:
    if checker.rotation_blocked(point[0], point[1]):
        return False
    for leg_pose, dist in ((pose, pre), (Pose2D(point[0], point[1], goal.yaw), post)):
        n = max(1, math.ceil(abs(dist) / config.collision_step))
        c, s = math.cos(leg_pose.yaw), math.sin(leg_pose.yaw)
        ts = np.arange(n + 1) * (dist / n)
        xs = leg_pose.x + ts * c
        ys = leg_pose.y + ts * s
        cos_w = np.full(n + 1, c)
        sin_w = np.full(n + 1, s)
        if bool(checker.batch_blocked(xs, ys, cos_w, sin_w).any()):
            return False
    return True


def _extension_path(pose: Pose2D, goal: Pose2D, point: Tuple[float, float],
                    pre: float, delta: float, post: float,
                    config: PlannerConfig) -> PlannedPath:
    builder = PathBuilder(pose)
    if abs(pre) > 1e-12:
        d = 1 if pre >= 0.0 else -1
        n = max(1, math.ceil(abs(pre) / config.collision_step))
        c, s = math.cos(pose.yaw), math.sin(pose.yaw)
        for i in range(1, n + 1):
            t = pre * i / n
            builder.add_drive_sample(pose.x + t * c, pose.y + t * s, pose.yaw, 0.0, d)
    builder.add_rotation(delta)
    if abs(post) > 1e-12:
        d = 1 if post >= 0.0 else -1
        n = max(1, math.ceil(abs(post) / config.collision_step))
        c, s = math.cos(goal.yaw), math.sin(goal.yaw)
        for i in range(1, n + 1):
            t = post * i / n
            builder.add_drive_sample(point[0] + t * c, point[1] + t * s, goal.yaw, 0.0, d)
    return builder.finish()
