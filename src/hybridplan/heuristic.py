"""Obstacle-aware 2D cost-to-goal field and the paths extracted from it.

The field doubles as the planner's distance heuristic and as the source of
the coarse routes whose divergence between timesteps triggers replanning.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

from .geometry import Pose2D
from .grid import OccupancyGrid, Raster, obstacle_window

if TYPE_CHECKING:
    from .planner import PlannerConfig

DIVERGENCE_STEP = 0.625       # [m] arc-length resampling for path matching
# (dy, dx) of the 8 neighbors, in row-major order
_NEIGHBORS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


class GoalBlockedError(ValueError):
    pass


class NoRouteError(ValueError):
    pass


@dataclass(frozen=True)
class DistanceMap(Raster):
    """2D cost-to-goal in meters on the coarse grid; +inf where unreachable
    and off the grid.

    `successor` holds, per row-major cell, the neighbor minimizing value +
    edge cost (ties to the lowest row-major index), or -1 when no neighbor
    is finite.  It is built from `values` alone, so it cannot go stale;
    given the `previous` map of the same grid, its table is copied and
    rebuilt only next to the values that differ.
    """

    blocked: np.ndarray
    goal_cell: Tuple[int, int]
    previous: InitVar[Optional["DistanceMap"]] = None
    successor: memoryview = field(init=False, repr=False, compare=False)

    def __post_init__(self, previous: Optional["DistanceMap"]) -> None:
        h, w = self.values.shape
        y0, y1, x0, x1 = 0, h, 0, w
        succ = np.full((h, w), -1, dtype=np.int32)
        if previous is not None:      # a successor reads only its neighbors' values
            succ = np.array(previous.successor).reshape(h, w)
            changed = previous.values != self.values
            rows = np.flatnonzero(changed.any(axis=1))
            cols = np.flatnonzero(changed.any(axis=0))
            if rows.size:
                y0, y1 = max(rows[0] - 1, 0), min(rows[-1] + 2, h)
                x0, x1 = max(cols[0] - 1, 0), min(cols[-1] + 2, w)
            else:
                y1 = x1 = 0
        padded = np.full((h + 2, w + 2), np.inf)
        padded[1:-1, 1:-1] = np.where(np.isfinite(self.values), self.values, np.inf)
        best = np.full((y1 - y0, x1 - x0), np.inf)
        window = succ[y0:y1, x0:x1]
        window[...] = -1
        flat = np.arange(h * w, dtype=np.int32).reshape(h, w)[y0:y1, x0:x1]
        for dy, dx in _NEIGHBORS:
            edge = self.resolution * math.sqrt(2.0) if dx and dy else self.resolution
            key = padded[1 + dy + y0:1 + dy + y1, 1 + dx + x0:1 + dx + x1] + edge
            better = key < best               # strict: the first minimum stays
            np.copyto(best, key, where=better)
            np.copyto(window, flat + (dy * w + dx), where=better)
        succ.setflags(write=False)
        object.__setattr__(self, "successor", memoryview(succ.reshape(-1)))

    def cell_center(self, ix: int, iy: int) -> Tuple[float, float]:
        return (ix + 0.5) * self.resolution, (iy + 0.5) * self.resolution

    def nearest_reachable_cell(self, x: float, y: float) -> Optional[Tuple[int, int]]:
        """The finite-valued cell closest to (x, y) within two cells of its own, ties
        to the lowest row-major index.  A finite own cell, within 0.71 cells of the
        point while every cell two rings out is 1.5 or more, limits the scan to 3 x 3."""
        ix0, iy0 = self.cell_of(x, y)
        h, w = self.values.shape
        own = 0 <= ix0 < w and 0 <= iy0 < h and math.isfinite(self.values[iy0, ix0])
        r, res, best = (1 if own else 2), self.resolution, None
        x0, y0 = max(0, ix0 - r), max(0, iy0 - r)
        block = self.values[y0:max(y0, iy0 + r + 1), x0:max(x0, ix0 + r + 1)].tolist()
        for iy, row in enumerate(block, y0):
            for ix, v in enumerate(row, x0):
                if math.isfinite(v):          # centres as `cell_center` computes them
                    key = (((ix + 0.5) * res - x) ** 2 + ((iy + 0.5) * res - y) ** 2, iy * w + ix)
                    if best is None or key < best[0]:
                        best = (key, (ix, iy))
        return None if best is None else best[1]

    def route_distance(self, x: float, y: float) -> float:
        """Cost-to-goal from the nearest reachable cell around (x, y)."""
        cell = self.nearest_reachable_cell(x, y)
        if cell is None:
            return math.inf
        return float(self.values[cell[1], cell[0]])


def _downsample_blocked(fine_blocked: np.ndarray, factor: int) -> np.ndarray:
    """Max-pool: a coarse cell is blocked if any fine cell inside it is.

    An OR of `factor` strided row slices, then of `factor` column slices:
    several times faster than reducing a (ch, factor, cw, factor) view.
    """
    h, w = fine_blocked.shape
    padded = np.zeros((-(-h // factor) * factor, -(-w // factor) * factor), dtype=bool)
    padded[:h, :w] = fine_blocked
    rows = padded[::factor].copy()
    for k in range(1, factor):
        rows |= padded[k::factor]
    pooled = rows[:, ::factor].copy()
    for k in range(1, factor):
        pooled |= rows[:, k::factor]
    return pooled


def resolution_factor(xy_resolution: float, grid_resolution: float) -> int:
    """Grid cells per coarse cell side; the planner's `xy_resolution` must be
    a whole multiple of the grid resolution."""
    factor = xy_resolution / grid_resolution
    whole = round(factor) if math.isfinite(factor) else 0
    if whole < 1 or abs(factor - whole) > 1e-9:
        raise ValueError(f"xy_resolution must be an integer multiple of the grid resolution "
                         f"{grid_resolution!r}, got {xy_resolution!r}")
    return whole


def build_distance_map(belief: OccupancyGrid, goal: Pose2D,
                       config: PlannerConfig) -> DistanceMap:
    """Flood the cost-to-goal over the 8-connected grid of the planner's lattice.

    Unknown cells count as free (optimistic planner); cells within
    `config.inflation_radius` of an occupied cell, on the belief's obstacle
    field (ValueError when the radius exceeds its cap), are blocked before
    max-pool downsampling.  Straight moves cost the planning resolution,
    diagonal moves sqrt(2) times that.  The map is memoized on the belief
    per goal cell, resolution and radius.  A rebuild from the previous
    generation's map pools again only the coarse cells over the added
    cells' window (`obstacle_window` at the radius).  An added obstacle only
    lowers the field, so the blocked grid only grows: an unchanged one keeps
    the whole map, values and successor table, and a grown one is repaired
    (`_repair_flood`).  A build with no previous map pools in full and
    repairs the empty map.
    """
    res, inflation = config.xy_resolution, config.inflation_radius
    factor = resolution_factor(res, belief.resolution)
    # cell_of reads only the resolution of the coarse grid
    goal_cell = Raster(belief.cells, res, True).cell_of(goal.x, goal.y)

    def build(previous: Optional[DistanceMap], added: Optional[np.ndarray]) -> DistanceMap:
        field = belief.distance_field([("the route's inflation_radius", inflation)]).values
        if previous is None:
            blocked = _downsample_blocked(field <= inflation, factor)
        else:       # the coarse cells over the window, pooled again
            window = obstacle_window(added, field.shape, belief.resolution, inflation)
            (y0, y1), (x0, x1) = ((s.start // factor, -(-s.stop // factor)) for s in window)
            pooled = _downsample_blocked(
                field[y0 * factor:y1 * factor, x0 * factor:x1 * factor] <= inflation, factor)
            if np.array_equal(previous.blocked[y0:y1, x0:x1], pooled):
                return previous
            blocked = previous.blocked.copy()
            blocked[y0:y1, x0:x1] = pooled
        coarse = Raster(blocked, res, True)
        if coarse.at(goal.x, goal.y):                 # blocked or off the grid
            raise GoalBlockedError("goal blocked")
        values = _repair_flood(previous, blocked, goal_cell, res)
        values.setflags(write=False)
        blocked.setflags(write=False)
        return DistanceMap(values, res, math.inf,
                           blocked=blocked, goal_cell=goal_cell, previous=previous)

    return belief.derived(("route_map", goal_cell, res, inflation), build)


def _free_graph(free: np.ndarray, resolution: float, source: np.ndarray) -> csr_matrix:
    """The 8-connected graph of the free cells, numbered in row-major
    order, plus one last node with an edge to each free cell where
    `source` is finite, weighing that value."""
    h, w = free.shape
    n = int(free.sum())
    idx = np.full((h, w), -1, dtype=np.int64)
    idx[free] = np.arange(n)
    rows = []
    cols = []
    data = []
    diag = resolution * math.sqrt(2.0)
    for dy, dx, cost in ((0, 1, resolution), (1, 0, resolution),
                         (1, 1, diag), (1, -1, diag)):
        src_y = slice(max(0, -dy), h - max(0, dy))
        src_x = slice(max(0, -dx), w - max(0, dx))
        dst_y = slice(max(0, dy), h - max(0, -dy))
        dst_x = slice(max(0, dx), w - max(0, -dx))
        ok = free[src_y, src_x] & free[dst_y, dst_x]
        a = idx[src_y, src_x][ok]
        b = idx[dst_y, dst_x][ok]
        rows.append(a)
        cols.append(b)
        data.append(np.full(a.shape, cost))
    cost = source[free]
    reached = np.flatnonzero(np.isfinite(cost))
    rows.append(np.full(reached.shape, n))
    cols.append(reached)
    data.append(cost[reached])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    data = np.concatenate(data)
    return coo_matrix((data, (rows, cols)), shape=(n + 1, n + 1)).tocsr()


def _repair_flood(previous: Optional[DistanceMap], blocked: np.ndarray,
                  goal_cell: Tuple[int, int], resolution: float) -> np.ndarray:
    """Shortest paths to the goal over the free cells of `blocked` (sparse
    Dijkstra), from the map of a blocked grid that `blocked` contains, or
    from the empty map (the goal at 0.0, every other cell +inf) if
    `previous` is None.

    Each finite value is fl(value of its successor + edge), so a cell whose
    successor chain avoids the newly blocked cells keeps its value: costs
    only rise, and that chain still costs it.  The other free cells are
    flooded again from a source whose edge to each weighs the min of
    fl(value + edge) over its kept neighbours, the float a flood from the
    goal computes along the same path.
    """
    h, w = blocked.shape
    gx, gy = goal_cell
    if previous is None:
        values = np.full((h, w), np.inf)
        values[gy, gx] = 0.0
        redo = ~blocked
        redo[gy, gx] = False
    else:
        # pointer doubling over the successor chains: the goal is a root, and
        # the newly blocked cells and cells without a successor go to a sink
        sink = h * w
        succ = np.append(np.asarray(previous.successor, dtype=np.intp), sink)
        succ[succ < 0] = sink
        succ[:-1][(blocked > previous.blocked).reshape(-1)] = sink
        succ[gy * w + gx] = gy * w + gx
        while True:
            ahead = succ[succ]
            if np.array_equal(ahead, succ):
                break
            succ = ahead
        cut = (succ[:-1] == sink).reshape(h, w)
        values = previous.values.copy()
        values[cut] = np.inf
        redo = cut & ~blocked & np.isfinite(previous.values)
        if not redo.any():
            return values
    padded = np.full((h + 2, w + 2), np.inf)
    padded[1:-1, 1:-1] = values
    seed = np.full((h, w), np.inf)
    for dy, dx in _NEIGHBORS:
        edge = resolution * math.sqrt(2.0) if dx and dy else resolution
        np.minimum(seed, padded[1 + dy:1 + dy + h, 1 + dx:1 + dx + w] + edge, out=seed)
    graph = _free_graph(redo, resolution, seed)
    values[redo] = csgraph_dijkstra(graph, directed=False, indices=graph.shape[0] - 1)[:-1]
    return values


@dataclass(frozen=True, eq=False)
class AStarPath:
    """8-connected chain of coarse cell centers toward the goal, compared by
    identity.  A route extracted from a map keeps its row-major `cells`, the
    `edges` between them and that map (`source`); its arrays are read-only,
    as suffixes share them."""

    points: np.ndarray        # (n, 2) world coordinates
    cumulative_s: np.ndarray  # (n,) arc length from the start
    cells: Optional[np.ndarray] = field(default=None, repr=False)
    edges: Optional[np.ndarray] = field(default=None, repr=False)
    source: Optional[DistanceMap] = field(default=None, repr=False)

    @property
    def length(self) -> float:
        return float(self.cumulative_s[-1])


def extract_astar_path(dmap: DistanceMap, start: Pose2D,
                       previous: Optional[AStarPath] = None) -> AStarPath:
    """Steepest-descent walk over the cost-to-goal field down to the goal.

    Each step follows `dmap.successor`, an optimal edge (the neighbor
    minimizing value + edge cost, ties broken by lowest row-major index), so
    the chain's length equals the start cell's cost-to-goal.  The table is a
    tree toward the goal, so if `previous` came from this map object and holds
    the start cell, the route is its suffix from there (`previous` itself from
    its own start cell): the walk's arrays, sliced instead of walked.
    """
    cell = dmap.nearest_reachable_cell(start.x, start.y)
    if cell is None:
        raise NoRouteError("no 2D route")
    h, w = dmap.values.shape
    c = cell[1] * w + cell[0]
    reuse = previous is not None and previous.source is dmap
    on = np.flatnonzero(previous.cells == c) if reuse else ()
    if len(on) and on[0] == 0:
        return previous
    if len(on):
        cells, points, edges = (a[on[0]:] for a in (previous.cells, previous.points, previous.edges))
    else:
        gx, gy = dmap.goal_cell
        goal = gy * w + gx if 0 <= gx < w and 0 <= gy < h else -1
        successor = dmap.successor
        chain = [c]
        for _ in range(h * w):
            if c == goal:
                break
            c = successor[c]
            if c < 0:
                raise NoRouteError("no 2D route")
            chain.append(c)
        else:
            raise NoRouteError("descent did not reach the goal cell")
        cells = np.array(chain)
        iy, ix = np.divmod(cells, w)
        points = np.column_stack(dmap.cell_center(ix, iy))
        res = dmap.resolution
        edges = np.where((np.diff(ix) != 0) & (np.diff(iy) != 0), res * math.sqrt(2.0), res)
    cumulative_s = np.add.accumulate(np.concatenate(([0.0], edges)))
    for array in (cells, points, edges, cumulative_s):
        array.setflags(write=False)
    return AStarPath(points, cumulative_s, cells, edges, dmap)


def waypose_at(path: AStarPath, s_w: float) -> Pose2D:
    """Pose at arc length s_w along the path; heading from the owning segment."""
    if path.points.shape[0] < 2:
        raise ValueError("path too short for waypose")
    s = min(max(s_w, 0.0), path.length)
    idx = int(np.searchsorted(path.cumulative_s, s, side="left"))
    idx = max(1, min(idx, path.points.shape[0] - 1))
    p0 = path.points[idx - 1]
    p1 = path.points[idx]
    seg = path.cumulative_s[idx] - path.cumulative_s[idx - 1]
    frac = 0.0 if seg <= 0.0 else (s - path.cumulative_s[idx - 1]) / seg
    pos = p0 + frac * (p1 - p0)
    yaw = math.atan2(p1[1] - p0[1], p1[0] - p0[0])
    return Pose2D(float(pos[0]), float(pos[1]), yaw)


def _resample(path: AStarPath, s_values: np.ndarray) -> np.ndarray:
    xs = np.interp(s_values, path.cumulative_s, path.points[:, 0])
    ys = np.interp(s_values, path.cumulative_s, path.points[:, 1])
    return np.column_stack([xs, ys])


def detect_divergence(prev: AStarPath, curr: AStarPath, d_div: float) -> Optional[float]:
    """Arc length along `prev` where the two routes first drift apart.

    Both paths are resampled every `DIVERGENCE_STEP` of arc length and compared
    element-wise up to the shorter length; returns the smallest arc length
    whose distance exceeds d_div, or None if they never diverge.
    """
    limit = min(prev.length, curr.length)
    n = int(math.floor(limit / DIVERGENCE_STEP))
    s_values = np.arange(n + 1) * DIVERGENCE_STEP
    a = _resample(prev, s_values)
    b = _resample(curr, s_values)
    d = np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])
    over = np.nonzero(d > d_div)[0]
    if over.size == 0:
        return None
    return float(s_values[over[0]])
