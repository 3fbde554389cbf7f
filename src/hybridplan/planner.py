"""Hybrid A* search over (x, y, yaw) with drive and in-place rotation primitives.

Nodes hold continuous poses reached by kinematically exact motion
primitives and are deduplicated on a coarse (x, y, yaw) lattice.  The
search terminates at the goal lattice cell, through an analytic expansion
(shortest bounded-curvature path, plus the drive-rotate-drive connection
when rotations are enabled), or early once the 2D cost-to-goal heuristic
has dropped by a requested distance.
"""
from __future__ import annotations

import heapq
import itertools
import math
import time
from array import array
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from .geometry import Pose2D, move_along_arc, normalize_angle
from .grid import OccupancyGrid
from .heuristic import build_distance_map
from .reeds_shepp import PathSamples, rs_all_paths, rs_path_length, sample_path, sample_paths
from .vehicle import CollisionChecker, VehicleSpec, checker_thresholds

STANDARD = "standard"
EXTENDED = "extended"

_PREFIX = 64    # samples per Reeds-Shepp candidate in the analytic expansion's first check


class PlannerFailure(RuntimeError):
    stats: Optional["SearchStats"] = None     # the failed search's, set by `plan`


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
    rs_heuristic_radius: float = 12.0        # [m] add the RS term to h below this
    extension_segment_length: float = 60.0   # [m] heading-line segment (half = 30)
    node_budget: int = 500_000
    inflation_radius: float = 1.0            # [m] 2D heuristic obstacle inflation

    def __post_init__(self) -> None:
        # written as not (0 < v < inf) so that NaN fails too
        for name in ("xy_resolution", "yaw_resolution", "arc_length", "collision_step",
                     "delta_phi", "analytic_radius", "extension_segment_length"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("w_reverse", "w_switch", "w_steer", "w_steer_change",
                     "w_rotation_fixed", "w_rotation_rate", "rs_heuristic_radius",
                     "inflation_radius"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        if self.n_steer < 3 or self.n_steer % 2 == 0:
            raise ValueError("n_steer must be an odd number >= 3")
        if self.f_ext < 1:
            raise ValueError("f_ext must be >= 1")
        if self.node_budget < 1:
            raise ValueError("node_budget must be >= 1")

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
    # how the search ended: "goal cell", "early stop", "Reeds-Shepp" or
    # "drive-rotate-drive", else the failure's message ("budget exceeded",
    # "no path", "start in collision" or "goal in collision")
    end: str = ""


# --------------------------------------------------------------------------
# Path data model
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DriveSegment:
    """Continuous driving at one gear; per-interval curvature samples, read-only."""

    xs: np.ndarray
    ys: np.ndarray
    yaws: np.ndarray
    kappas: np.ndarray        # (n-1,) curvature of each sample interval
    s: np.ndarray             # (n,) cumulative arc length within the segment
    direction: int            # +1 forward, -1 reverse

    def __post_init__(self) -> None:   # hold read-only views: a segment never changes
        for name in ("xs", "ys", "yaws", "kappas", "s"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)).view())
            getattr(self, name).setflags(write=False)
        n = len(self.s)
        lengths = [len(self.xs), len(self.ys), len(self.yaws), len(self.kappas)]
        if n < 2 or lengths != [n, n, n, n - 1]:
            raise ValueError("a drive segment needs n >= 2 xs, ys, yaws and s, and n - 1 kappas")

    @property
    def arc_length(self) -> float:
        return float(self.s[-1])

    def interval(self, offset):
        """Curvature interval of a local arc offset (or array): counting interior
        boundaries equals clip(searchsorted(s, offset, "right") - 1, 0, len(kappas) - 1)."""
        return self.s[1:-1].searchsorted(offset, side="right")

    def pose_at(self, offset: float) -> Pose2D:
        """Exact pose at a local arc offset (re-integrates the sub-arc)."""
        offset = min(max(offset, 0.0), self.arc_length)
        i = self.interval(offset)
        ds = (offset - self.s[i]) * self.direction
        x, y, yaw = move_along_arc(float(self.xs[i]), float(self.ys[i]),
                                   float(self.yaws[i]), float(self.kappas[i]), ds)
        return Pose2D(x, y, yaw)

    def kappa_at(self, offset: float) -> float:
        return float(self.kappas[self.interval(offset)])


@dataclass(frozen=True)
class RotationSegment:
    """In-place rotation about the rear-axle point; moves no distance."""

    x: float
    y: float
    from_yaw: float
    to_yaw: float
    delta: float


Segment = Union[DriveSegment, RotationSegment]


@dataclass(frozen=True, eq=False)
class PlannedPath:
    """A value: a tuple of frozen segments (a list is converted); equal only to itself."""
    segments: Tuple[Segment, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))

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

    def walk(self, rotations_done: int = 0) -> Iterator[Tuple[float, Segment]]:
        """(acc, seg) for every segment, acc being the drive arc length before
        seg; the first rotations_done rotations, already executed, are skipped."""
        acc = 0.0
        for seg in self.segments:
            if isinstance(seg, DriveSegment):
                yield acc, seg
                acc += seg.arc_length
            elif rotations_done > 0:
                rotations_done -= 1
            else:
                yield acc, seg

    def pose_at(self, s: float) -> Pose2D:
        """Pose at drive arc length s on the first drive ending at most 1e-9 before s,
        as in gear_at: a rotation at s is pending, but one opening the path is done at 0."""
        remaining = max(s, 0.0)
        for seg in self.segments:
            if isinstance(seg, DriveSegment):
                if remaining <= seg.arc_length + 1e-9:
                    return seg.pose_at(remaining)
                remaining -= seg.arc_length
        return self.end_pose()

    def gear_at(self, s: float) -> Tuple[int, float]:
        """Direction and curvature at drive arc length s (for stitch continuity)."""
        last: Tuple[int, float] = (0, 0.0)
        for acc, seg in self.walk():
            if isinstance(seg, RotationSegment):
                if acc < s:
                    last = (0, 0.0)   # a rotation resets the gear
                continue
            if acc + seg.arc_length >= s - 1e-9:
                return seg.direction, seg.kappa_at(min(s - acc, seg.arc_length))
            last = (seg.direction, float(seg.kappas[-1]))
        return last

    def slice(self, s0: float, s1: float, rotations_done: int = 0) -> "PlannedPath":
        """Sub-path between drive arc lengths s0 and s1.

        The window is half-open, as pose_at leaves a rotation at s pending: a
        rotation at s0 is kept and one at s1 is left to the next slice; the
        last non-empty slice keeps one at the path's end.  The first
        rotations_done rotations are already executed and left out (`walk`).
        """
        out: List[Segment] = []
        end = math.inf if s0 < s1 and s1 >= self.total_drive_length else s1
        for acc, seg in self.walk(rotations_done):
            if isinstance(seg, RotationSegment):
                if s0 <= acc < end:
                    out.append(seg)
                continue
            lo = max(s0 - acc, 0.0)
            hi = min(s1 - acc, seg.arc_length)
            if hi - lo > 1e-12:
                out.append(_clip_drive(seg, lo, hi))
        return PlannedPath(out)

    def concat(self, other: "PlannedPath") -> "PlannedPath":
        merged = list(self.segments)
        for seg in other.segments:
            _append_segment(merged, seg)
        return PlannedPath(merged)


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
    kappas = seg.kappas[seg.interval(np.concatenate(([lo], s_inner)))]
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
    """Accumulates pose samples and rotations into a PlannedPath; a run of
    drive samples, ended by a gear change, a rotation or `finish`, is one
    drive segment."""

    def __init__(self, start: Pose2D) -> None:
        self._anchor = start
        self._segments: List[Segment] = []
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
        self._segments.append(DriveSegment(
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
        self._segments.append(RotationSegment(pose.x, pose.y, pose.yaw, to_yaw, delta))
        self._anchor = Pose2D(pose.x, pose.y, to_yaw)

    def finish(self) -> PlannedPath:
        self._flush()
        return PlannedPath(self._segments)


# --------------------------------------------------------------------------
# Steps and costs
# --------------------------------------------------------------------------
# A step is (steer, direction, amount): direction +1/-1 drives `amount`
# metres forward/in reverse at `steer`, direction 0 rotates in place by
# `amount` radians and leaves the gear at 0.

def cost_of(steer: float, direction: int, amount: float, config: PlannerConfig,
            parent_direction: int = 0, parent_steer: float = 0.0) -> float:
    """Movement cost of one step given the parent's gear and steering."""
    if direction == 0:
        return config.w_rotation_fixed + config.w_rotation_rate * abs(amount)
    cost = amount * (1.0 + (config.w_reverse if direction < 0 else 0.0))
    if parent_direction != 0 and direction != parent_direction:
        cost += config.w_switch
    cost += config.w_steer * abs(steer)
    cost += config.w_steer_change * abs(steer - parent_steer)
    return cost


def steps_cost(steps: List[Tuple[float, int, float]], config: PlannerConfig,
               direction: int = 0, steer: float = 0.0) -> float:
    """Movement cost of a step sequence, walking gear and steer from the parent's."""
    cost = 0.0
    for step_steer, step_direction, amount in steps:
        cost += cost_of(step_steer, step_direction, amount, config, direction, steer)
        direction, steer = step_direction, step_steer
    return cost


def geometric_extension(current: Pose2D, goal: Pose2D, seg_len: float
                        ) -> Optional[Tuple[Tuple[float, float], float, float, float]]:
    """Drive-rotate-drive connection through the heading-line intersection.

    Two line segments of half-length seg_len/2 run through the current and
    goal poses along their headings.  If they intersect, the intersection is
    the rotation point; returns (point, pre_dist, delta_yaw, post_dist) with
    signed distances along the respective headings, else None.
    """
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

class _PrimitiveTable:
    """Sub-sampled displacement tables for every steer/direction primitive."""

    def __init__(self, config: PlannerConfig, vehicle: VehicleSpec) -> None:
        self.wheelbase = vehicle.wheelbase
        steers = config.steer_angles(vehicle.max_steer)
        n_sub = max(1, math.ceil(config.arc_length / config.collision_step))
        self.steps = [(steer, direction, config.arc_length)
                      for direction in (1, -1) for steer in steers]
        rel = []
        for steer, direction, _ in self.steps:
            kappa = math.tan(steer) / vehicle.wheelbase
            rows = []
            for i in range(1, n_sub + 1):
                ds = config.arc_length * i / n_sub * direction
                rows.append(move_along_arc(0.0, 0.0, 0.0, kappa, ds))
            rel.append(rows)
        arr = np.array(rel)                          # (P, K, 3)
        dx, dy, dyaw = arr[:, :, 0], arr[:, :, 1], arr[:, :, 2]
        # (dx, dy, cos dyaw, sin dyaw) of every sub-sample, (4, P, K)
        self.samples = np.stack((dx, dy, np.cos(dyaw), np.sin(dyaw)))
        # (end dx, end dy, end dyaw, step) of every primitive
        self.ends = [(float(dx[p, -1]), float(dy[p, -1]), float(dyaw[p, -1]), step)
                     for p, step in enumerate(self.steps)]
        self.n_sub = n_sub
        # the farthest any footprint disk centre of any sample gets from the node
        offsets = np.array(vehicle.disks.centers)
        cos_dyaw, sin_dyaw = self.samples[2:, ..., None]
        self.reach = float(np.hypot(dx[..., None] + offsets * cos_dyaw,
                                    dy[..., None] + offsets * sin_dyaw).max())


def field_cap(vehicle: VehicleSpec, config: PlannerConfig, resolution: float) -> float:
    """The obstacle field's cap on a grid of `resolution`: the largest threshold of
    its readers, the route's inflation radius and the checker at the primitives' reach."""
    reach = _PrimitiveTable(config, vehicle).reach
    thresholds = checker_thresholds(vehicle.disks, resolution, reach)
    return max(config.inflation_radius, *(threshold for _, threshold in thresholds))


def _lattice_key(config: PlannerConfig):
    """The (x cell, y cell, yaw bin) lattice key of a pose."""
    res, yaw_res = config.xy_resolution, config.yaw_resolution
    n_bins = math.ceil(2.0 * math.pi / yaw_res)
    floor, pi = math.floor, math.pi

    def key(x: float, y: float, yaw: float) -> Tuple[int, int, int]:
        return floor(x / res), floor(y / res), floor((yaw + pi) / yaw_res) % n_bins

    return key


# --------------------------------------------------------------------------
# plan()
# --------------------------------------------------------------------------

def plan(belief: OccupancyGrid, start: Pose2D, goal: Pose2D, vehicle: VehicleSpec,
         config: PlannerConfig = PlannerConfig(), mode: str = STANDARD,
         horizon: Optional[float] = None,
         start_direction: int = 0, start_steer: float = 0.0,
         ) -> Tuple[PlannedPath, SearchStats]:
    """Search a kinematically feasible path on the belief map.

    With no `horizon` it plans to the goal: it ends on the goal lattice cell or
    a collision-free analytic connection.  A horizon ends it on the goal cell or
    at the first expanded node whose 2D cost-to-goal has dropped more than
    `horizon` below the start's.  Every reader shares the belief's obstacle
    field, whose cap must reach their thresholds (`field_cap`; ValueError
    otherwise).  Raises PlannerFailure (NoPathError, BudgetExceededError)
    carrying the failed search's stats, and ValueError for an unknown mode or
    a horizon that is not None or in (0, inf).
    """
    if mode not in (STANDARD, EXTENDED):
        raise ValueError(f"unknown planner mode {mode!r}")
    if horizon is not None and not 0.0 < horizon < math.inf:    # NaN fails too
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    t_begin = time.perf_counter()
    stats = SearchStats()

    def failed(exc: PlannerFailure) -> PlannerFailure:
        stats.wall_time_s = time.perf_counter() - t_begin
        stats.end = str(exc)
        exc.stats = stats
        return exc

    table = _PrimitiveTable(config, vehicle)
    checker = CollisionChecker(belief, vehicle.disks, table.reach)

    if checker.pose_blocked(start.x, start.y, start.yaw):
        raise failed(PlannerFailure("start in collision"))
    if horizon is None and checker.pose_blocked(goal.x, goal.y, goal.yaw):
        raise failed(PlannerFailure("goal in collision"))

    dmap = build_distance_map(belief, goal, config)

    hd_start = dmap.route_distance(start.x, start.y)
    if not math.isfinite(hd_start):
        raise failed(NoPathError())

    turn_radius = vehicle.min_turn_radius
    key_of = _lattice_key(config)
    # every step as (end dx, end dy, end dyaw, step) in the parent's frame: the
    # drive primitives, then the rotations (zero offset) when they are enabled
    n_drive = len(table.steps)
    ends = list(table.ends)
    if mode == EXTENDED:
        ends += [(0.0, 0.0, delta, (0.0, 0, delta)) for delta in config.rotation_angles()]
    step_costs = {}     # (parent direction, parent steer) -> cost of every step

    def costs_after(direction: int, steer: float) -> List[float]:
        costs = step_costs.get((direction, steer))
        if costs is None:
            costs = step_costs[(direction, steer)] = [
                cost_of(st, d, amount, config, direction, steer)
                for _, _, _, (st, d, amount) in ends]
        return costs

    values = dmap.values.tolist()    # rows, indexed by a lattice key: same resolution
    h_cells, w_cells = dmap.values.shape

    def heuristic(x: float, y: float, yaw: float, key: Tuple[int, int, int]) -> Tuple[float, float]:
        ix, iy, _ = key
        hd = values[iy][ix] if 0 <= ix < w_cells and 0 <= iy < h_cells else math.inf
        euclid = math.hypot(goal.x - x, goal.y - y)
        h = hd if math.isfinite(hd) else euclid
        if euclid <= config.rs_heuristic_radius:
            rs = rs_path_length(Pose2D(x, y, yaw), goal, turn_radius)
            h = max(h, rs)
        else:
            h = max(h, euclid)
        return h, hd

    goal_key = key_of(goal.x, goal.y, goal.yaw)
    start_key = key_of(start.x, start.y, start.yaw)
    h0, hd0 = heuristic(start.x, start.y, start.yaw, start_key)
    # the search state, one row per node in creation order: pose, cost, route
    # distance and parent (-1 for the root), the step that made it and its key
    xs, ys, yaws = array("d", [start.x]), array("d", [start.y]), array("d", [start.yaw])
    gs, hds, parents = array("d", [0.0]), array("d", [hd0]), array("q", [-1])
    steps, keys = [(start_steer, start_direction, 0.0)], [start_key]
    stats.nodes_created = 1

    best_g = {start_key: 0.0}
    open_heap = [(h0, h0, 0)]     # (f, h, node): the node number breaks ties
    analytic_tried = set()

    def finish(n: int, end: str, suffix: PlannedPath = PlannedPath()
               ) -> Tuple[PlannedPath, SearchStats]:
        path = _reconstruct(n, parents, steps, (xs, ys, yaws), table).concat(suffix)
        stats.wall_time_s = time.perf_counter() - t_begin
        stats.end = end
        return path, stats

    while open_heap:
        _, h, n = heapq.heappop(open_heap)
        g, key = gs[n], keys[n]
        if g > best_g.get(key, math.inf) + 1e-12:
            continue
        if stats.nodes_expanded >= config.node_budget:
            raise failed(BudgetExceededError())
        stats.nodes_expanded += 1

        if key == goal_key:
            return finish(n, "goal cell")
        if horizon is not None and math.isfinite(hds[n]) and hd_start - hds[n] > horizon:
            return finish(n, "early stop")
        x, y, yaw = xs[n], ys[n], yaws[n]
        steer, direction, _ = steps[n]
        if horizon is None and h < config.analytic_radius and key not in analytic_tried:
            analytic_tried.add(key)
            suffix = analytic_expansions(Pose2D(x, y, yaw), goal, checker, config, vehicle,
                                         mode, parent_direction=direction, parent_steer=steer)
            if suffix is not None:
                return finish(n, "drive-rotate-drive" if suffix.n_rotations else "Reeds-Shepp",
                              suffix)

        # children: end pose, lattice key and cost of every step first; one
        # collision check over all drive primitives if a drive beats best_g
        c, s = math.cos(yaw), math.sin(yaw)
        n_steps = n_drive
        if (len(ends) > n_drive and stats.nodes_expanded % config.f_ext == 0
                and not checker.rotation_blocked(x, y)):
            n_steps = len(ends)
        costs = costs_after(direction, steer)
        fresh = []
        for i in range(n_steps):
            dx, dy, dyaw, _ = ends[i]
            nx = x + dx * c - dy * s
            ny = y + dx * s + dy * c
            nyaw = normalize_angle(yaw + dyaw)
            nkey = key_of(nx, ny, nyaw)
            g2 = g + costs[i]
            if g2 < best_g.get(nkey, math.inf) - 1e-12:
                fresh.append((i, nx, ny, nyaw, nkey, g2))
        blocked = []     # drives precede rotations in `fresh`, as in `ends`
        if fresh and fresh[0][0] < n_drive:
            blocked = checker.expansion_blocked(x, y, c, s, table.samples)

        # best_g only decreases, so re-testing it here settles children of
        # this expansion that share a key exactly as one sequential pass would
        for i, nx, ny, nyaw, nkey, g2 in fresh:
            if (i < len(blocked) and blocked[i]) or g2 >= best_g.get(nkey, math.inf) - 1e-12:
                continue
            h2, hd2 = heuristic(nx, ny, nyaw, nkey)
            best_g[nkey] = g2
            heapq.heappush(open_heap, (g2 + h2, h2, stats.nodes_created))
            stats.nodes_created += 1
            xs.append(nx)
            ys.append(ny)
            yaws.append(nyaw)
            gs.append(g2)
            hds.append(hd2)
            parents.append(n)
            steps.append(ends[i][3])
            keys.append(nkey)

    raise failed(NoPathError())


def _reconstruct(n: int, parents: array, steps: List[Tuple[float, int, float]],
                 poses: Tuple[array, array, array], table: _PrimitiveTable) -> PlannedPath:
    """Replay node n's parent chain into a pose-continuous path."""
    chain: List[int] = []
    while n >= 0:       # a parent is created before its child: no cycle
        chain.append(n)
        n = parents[n]
    chain.reverse()

    xs, ys, yaws = poses
    builder = PathBuilder(Pose2D(xs[0], ys[0], yaws[0]))
    for parent, n in zip(chain, chain[1:]):
        steer, direction, amount = steps[n]
        if direction == 0:
            builder.add_rotation(amount)
            continue
        kappa = math.tan(steer) / table.wheelbase
        n_sub = table.n_sub
        x, y, yaw = xs[parent], ys[parent], yaws[parent]
        step = amount / n_sub * direction
        for _ in range(n_sub):
            x, y, yaw = move_along_arc(x, y, yaw, kappa, step)
            builder.add_drive_sample(x, y, normalize_angle(yaw), kappa, direction)
    return builder.finish()


def analytic_expansions(pose: Pose2D, goal: Pose2D, checker: CollisionChecker,
                        config: PlannerConfig, vehicle: VehicleSpec, mode: str,
                        parent_direction: int = 0,
                        parent_steer: float = 0.0) -> Optional[PlannedPath]:
    """Collision-free analytic connection from pose to goal.

    The vehicle's bounded-curvature words are solved once and tried shortest
    first, so the feasible suffix is the shortest one: the first `_PREFIX`
    samples of every word are checked in one batch, and only the free words
    are sampled and checked in full.  With rotations enabled the
    drive-rotate-drive geometric extension competes against it under the
    movement cost model.  ValueError for an unknown mode.
    """
    if mode not in (STANDARD, EXTENDED):
        raise ValueError(f"unknown planner mode {mode!r}")
    best_path: Optional[PlannedPath] = None
    best_cost = math.inf

    def blocked(samples: PathSamples) -> np.ndarray:    # per path: is any sample blocked
        heading = np.array((np.cos(samples.yaws), np.sin(samples.yaws)))
        return checker.batch_blocked(samples.xy, heading).any(axis=-1)

    radius = vehicle.min_turn_radius
    words = [rows for rows in rs_all_paths(pose, goal, radius)
             if sum([row[2] for row in rows]) < 1e6]
    free = ~blocked(sample_paths(words, radius, pose, config.collision_step,
                                 _PREFIX)) if words else ()
    for rows in itertools.compress(words, free):
        samples = sample_path(rows, radius, pose, config.collision_step)
        if not blocked(samples):
            best_cost = steps_cost([(turn * vehicle.max_steer, d, length)
                                    for turn, d, length in rows],
                                   config, parent_direction, parent_steer)
            builder = PathBuilder(pose)
            for row in list(zip(*samples.xy.tolist(), samples.yaws.tolist(),
                                samples.kappas.tolist(), samples.directions.tolist()))[1:]:
                builder.add_drive_sample(*row)        # (x, y, yaw, kappa, direction)
            best_path = builder.finish()
            break

    if mode == EXTENDED:
        ext = geometric_extension(pose, goal, config.extension_segment_length)
        if ext is not None:
            point, pre, delta, post = ext
            steps = _leg_step(pre) + [(0.0, 0, delta)] + _leg_step(post)
            if steps_cost(steps, config, parent_direction, parent_steer) < best_cost:
                legs = [(pose.x, pose.y, pose.yaw, pre), (point[0], point[1], goal.yaw, post)]
                best_path = _extension_path(pose, legs, delta, checker,
                                            config.collision_step) or best_path

    return best_path


def _leg_step(dist: float) -> List[Tuple[float, int, float]]:
    """The straight drive step of a signed leg length; none for a zero-length leg."""
    return [(0.0, 1 if dist >= 0.0 else -1, abs(dist))] if abs(dist) > 1e-12 else []


def _extension_path(pose: Pose2D, legs: List[Tuple[float, float, float, float]],
                    delta: float, checker: CollisionChecker,
                    step: float) -> Optional[PlannedPath]:
    """Drive-rotate-drive suffix, None when its rotation or a leg collides.

    Each straight leg (x0, y0, yaw, signed dist) is sampled once, at
    x0 + (dist * i / n) * cos(yaw) for i = 0..n; the collision check tests
    these samples and the path is built from the same ones for i >= 1.
    """
    x_rot, y_rot = legs[1][:2]               # the second leg starts at the rotation
    if checker.rotation_blocked(x_rot, y_rot):
        return None
    sampled = []
    for x0, y0, yaw, dist in legs:
        n = max(1, math.ceil(abs(dist) / step))
        c, s = math.cos(yaw), math.sin(yaw)
        t = dist * np.arange(n + 1) / n
        xs, ys = x0 + t * c, y0 + t * s
        if checker.batch_blocked(np.array((xs, ys)), np.array([[c], [s]])).any():
            return None
        sampled.append((xs, ys, yaw, dist))
    builder = PathBuilder(pose)
    for i, (xs, ys, yaw, dist) in enumerate(sampled):
        if i == 1:
            builder.add_rotation(delta)
        for _, direction, _ in _leg_step(dist):
            for x, y in zip(xs[1:].tolist(), ys[1:].tolist()):
                builder.add_drive_sample(x, y, yaw, 0.0, direction)
    return builder.finish()
