"""Occupancy grids, sensing and derived obstacle fields.

Grid convention: cells[iy, ix] with iy increasing toward +y; cell (0, 0)
has its center at (resolution/2, resolution/2); the grid starts at the world
origin.  The ASCII map format stores rows top-down (row 0 is the maximum-y row).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import ndimage

from .geometry import Pose2D

UNKNOWN = 0
FREE = 1
OCCUPIED = 2

_CHAR_TO_CELL = {"?": UNKNOWN, ".": FREE, "#": OCCUPIED}


@dataclass(frozen=True, eq=False)
class Raster:
    """Values on square cells; the one world point to cell convention.

    Point (x, y) lies in cell floor(x / resolution), floor(y / resolution);
    points off the grid read `outside`.  Rasters compare by identity.
    """

    values: np.ndarray
    resolution: float
    outside: float

    def cell_of(self, x: float, y: float) -> Tuple[int, int]:
        return (int(math.floor(x / self.resolution)),
                int(math.floor(y / self.resolution)))

    def at(self, x: float, y: float) -> float:
        ix, iy = self.cell_of(x, y)
        h, w = self.values.shape
        if 0 <= ix < w and 0 <= iy < h:
            return float(self.values[iy, ix])
        return self.outside

    def flat_cells(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Row-major cell index of points stacked as x and y on a leading axis
        of 2, flattened, and where they lie off the grid (their index is then
        meaningless)."""
        h, w = self.values.shape
        cells = np.floor(points.reshape(2, -1) / self.resolution).astype(np.int64)
        off = cells.view(np.uint64) >= np.array([[w], [h]], dtype=np.uint64)
        return cells[1] * w + cells[0], off[0] | off[1]


class OccupancyGrid:
    """A grid that owns its cells and every value derived from them.

    The cells are a private read-only copy.  They change only through
    `set_cells`, `set_box` and `raytrace_reveal`, whose one write path
    (`_write`) starts a new generation of the memo, the grid's one
    generation token: a value read twice is the same object only if no
    write between the reads changed what it was derived from.

    One memo rule: a build only ever adds obstacles.  A derived value is
    built once per generation, and its build is handed `(previous, added)`:
    the value built under the same key in the generation before the last
    write, to start from, and the flat row-major indices of the cells that
    write made occupied.  Both are None when there is no such value, or
    when the write freed an occupied cell; the build then starts from
    empty.  Exactly one write separates a build from its `previous`, so
    `added` is the whole delta.  `previous` is dropped once the build
    returns.  Only two generations are held; `copy` starts with an empty
    memo.  `cap` saturates the grid's one obstacle field (`distance_field`);
    +inf, the default, keeps it exact.
    """

    def __init__(self, resolution: float, cells: np.ndarray, cap: float = math.inf) -> None:
        if not (math.isfinite(resolution) and resolution > 0.0):
            raise ValueError(f"resolution must be finite and positive, got {resolution!r}")
        if not cap > 0.0:       # written so that NaN fails too
            raise ValueError(f"cap must be positive, got {cap!r}")
        cells = np.array(cells, dtype=np.uint8, order="C")
        if cells.ndim != 2 or cells.size == 0:
            raise ValueError("cells must be a non-empty 2D array")
        cells.setflags(write=False)
        self.resolution = resolution
        self.cap = cap
        self._cells = cells
        self._added: Optional[np.ndarray] = None
        self._memo: dict = {}
        self._previous: dict = {}

    @property
    def cells(self) -> np.ndarray:
        """uint8, shape (height, width); read-only."""
        return self._cells

    def set_cells(self, index, values) -> None:
        """`cells[index] = values`, for any numpy index of the cells."""
        flat = np.arange(self._cells.size).reshape(self._cells.shape)[index]
        self._write(flat.reshape(-1), np.broadcast_to(values, flat.shape).reshape(-1))

    def _write(self, cells, values) -> None:
        """Write `values` to `cells`, a flat index array or a box of slices,
        then start a new generation.  When a value is memoized, keep the cells
        the write made occupied, or drop that generation if it freed one."""
        logged = bool(self._memo)
        self._cells.setflags(write=True)
        try:
            target = self._cells.reshape(-1) if isinstance(cells, np.ndarray) else self._cells
            was = target[cells] == OCCUPIED if logged else None
            target[cells] = values
        finally:
            self._cells.setflags(write=False)
        self._previous, self._memo, self._added = self._memo, {}, None
        if logged:
            now = target[cells] == OCCUPIED
            if isinstance(cells, tuple):      # a box: its flat indices
                cells = np.ravel_multi_index(tuple(np.mgrid[cells]), self._cells.shape)
            self._added = cells[now & ~was]
            if (was & ~now).any():            # freed: every build starts from empty
                self._previous = {}

    def derived(self, key, build: Callable[[object, Optional[np.ndarray]], object]):
        """`build(previous, added)`, memoized under `key` until the cells
        next change; `previous` is the value of `key` one write back and
        `added` the cells that write made occupied, both None if there is
        no such value or the write freed an occupied cell."""
        if key not in self._memo:
            previous = self._previous.get(key)
            self._memo[key] = build(previous, None if previous is None else self._added)
            self._previous.pop(key, None)   # kept until then, in case the build raises
        return self._memo[key]

    def distance_field(self, readers=()) -> Raster:
        """Memoized obstacle distance transform saturated at the grid's `cap`;
        -inf off the grid.  Each rebuild starts from the previous generation's
        field.  Raises ValueError on the first (reader, threshold) of `readers`
        above the cap, where the saturated field could decide otherwise."""
        for reader, threshold in readers:
            if threshold > self.cap:
                raise ValueError(f"{reader} compares the obstacle field with {threshold!r} m, "
                                 f"above the field's cap {self.cap!r} m")
        def build(previous: Optional[Raster], added: Optional[np.ndarray]) -> Raster:
            field = distance_transform(self, previous=previous and previous.values, added=added)
            return Raster(field, self.resolution, -math.inf)
        return self.derived(("distance_field",), build)

    def within(self, threshold: float, factor: int = 1) -> np.ndarray:
        """Memoized read-only mask of the `factor` x `factor` blocks (zero-padded
        at the far edges) that hold a cell whose obstacle field reads at most
        `threshold` m; ValueError above the cap.  A rebuild from the previous
        generation's mask pools again only the blocks over the added cells'
        box grown by the threshold, outside which no such cell can appear, and
        keeps the previous mask when they pool the same."""
        def build(previous: Optional[np.ndarray], added: Optional[np.ndarray]) -> np.ndarray:
            field = self.distance_field([("within", threshold)]).values
            if previous is None:
                mask = _downsample_blocked(field <= threshold, factor)
            elif not added.size:
                return previous
            else:
                rows, cols = _window(*np.divmod(added, field.shape[1]), field.shape,
                                     _grow(threshold, self.resolution, field.shape))
                (y0, y1), (x0, x1) = ((s.start // factor, -(-s.stop // factor))
                                      for s in (rows, cols))
                pooled = _downsample_blocked(
                    field[y0 * factor:y1 * factor, x0 * factor:x1 * factor] <= threshold, factor)
                if np.array_equal(previous[y0:y1, x0:x1], pooled):
                    return previous
                mask = previous.copy()
                mask[y0:y1, x0:x1] = pooled
            mask.setflags(write=False)
            return mask
        return self.derived(("within", threshold, factor), build)

    @classmethod
    def filled(cls, width_cells: int, height_cells: int, resolution: float,
               value: int = FREE) -> "OccupancyGrid":
        return cls(resolution, np.full((height_cells, width_cells), value, dtype=np.uint8))

    @property
    def width_cells(self) -> int:
        return self.cells.shape[1]

    @property
    def height_cells(self) -> int:
        return self.cells.shape[0]

    def copy(self) -> "OccupancyGrid":
        return OccupancyGrid(self.resolution, self.cells, self.cap)

    def occupied_mask(self, unknown_as_occupied: bool = False) -> np.ndarray:
        if unknown_as_occupied:
            return self.cells != FREE
        return self.cells == OCCUPIED

    def set_box(self, x0: float, y0: float, x1: float, y1: float, value: int) -> None:
        """Fill the cells whose centers fall inside the world-space box."""
        ix0 = max(0, int(math.ceil(x0 / self.resolution - 0.5)))
        iy0 = max(0, int(math.ceil(y0 / self.resolution - 0.5)))
        ix1 = min(self.width_cells, int(math.floor(x1 / self.resolution - 0.5)) + 1)
        iy1 = min(self.height_cells, int(math.floor(y1 / self.resolution - 0.5)) + 1)
        if ix0 < ix1 and iy0 < iy1:
            self._write((slice(iy0, iy1), slice(ix0, ix1)), value)



def load_map(path) -> OccupancyGrid:
    try:
        lines = Path(path).read_text(encoding="ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not ASCII: byte {exc.object[exc.start]:#x} "
                         f"at offset {exc.start}") from None
    if not lines:
        raise ValueError(f"{path}: empty map file")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"{path}: header must be 'W H RESOLUTION'")
    for name, value in zip("WH", header):
        if not (value.isdigit() and int(value) > 0):
            raise ValueError(f"{path}: {name} must be a positive integer, got {value!r}")
    w, h = int(header[0]), int(header[1])
    rows = lines[1:]
    if len(rows) != h:
        raise ValueError(f"{path}: expected {h} rows, found {len(rows)}")
    cells = np.empty((h, w), dtype=np.uint8)
    for file_row, line in enumerate(rows):
        if len(line) != w:
            raise ValueError(f"{path}: row {file_row} has {len(line)} chars, expected {w}")
        try:
            cells[h - 1 - file_row] = [_CHAR_TO_CELL[c] for c in line]
        except KeyError as exc:
            raise ValueError(f"{path}: bad cell character {exc} in row {file_row}") from None
    try:
        return OccupancyGrid(float(header[2]), cells)
    except ValueError:   # not a number, or not finite and positive
        raise ValueError(f"{path}: RESOLUTION must be a finite positive number, "
                         f"got {header[2]!r}") from None


def distance_transform(grid: OccupancyGrid, *, previous: Optional[np.ndarray] = None,
                       added: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-cell Euclidean distance in meters to the nearest occupied cell
    center, +inf where it exceeds `grid.cap`, as a read-only array.

    Occupied cells map to 0 and unknown cells count as free; a grid without
    any occupied cell maps to +inf.  A reader comparing with a threshold of
    at most the cap decides as on the exact field (cap +inf).

    `previous` is the field of the grid one write back, and
    `added` the flat indices of the cells that write made occupied (it
    freed none): `previous` itself when there are none, and otherwise
    lowered to the distance to them (`_add_obstacles`).  With no `previous`
    the update starts from the empty field: all +inf, to which every
    occupied cell is added.  Memory: the empty field is a read-only
    broadcast, so a build holds the new field and at most one `_edt`.
    """
    if previous is None:
        previous = np.broadcast_to(np.inf, grid.cells.shape)
        added = np.flatnonzero(grid.cells == OCCUPIED)
    if not added.size:
        return previous
    return _add_obstacles(previous, added, grid.resolution, grid.cap)


def _grow(reach: float, resolution: float, shape) -> int:
    """Cells to grow a window by so that it holds every cell within `reach` m."""
    return math.ceil(min(reach / resolution, max(shape))) + 1


def _window(rows: np.ndarray, cols: np.ndarray, shape, grow: int) -> Tuple[slice, slice]:
    """The bounding box of the cells, grown by `grow` cells, on the grid."""
    return (slice(max(rows.min() - grow, 0), min(rows.max() + grow + 1, shape[0])),
            slice(max(cols.min() - grow, 0), min(cols.max() + grow + 1, shape[1])))


def _downsample_blocked(fine_blocked: np.ndarray, factor: int) -> np.ndarray:
    """Max-pool: a coarse cell is blocked if any fine cell inside it is; at
    `factor` 1 the input itself.

    An OR of `factor` strided row slices, then of `factor` column slices:
    several times faster than reducing a (ch, factor, cw, factor) view.
    """
    if factor == 1:
        return fine_blocked
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


def _add_obstacles(field: np.ndarray, added: np.ndarray, resolution: float,
                   cap: float) -> np.ndarray:
    """A new array: `field` (saturated at `cap`) lowered to the saturated
    distance to the `added` cells (flat row-major indices).

    Only cells within `cap` of an added cell can fall.  A few added cells
    each take the min with a disc stamp, sqrt(dy*dy + dx*dx) * resolution
    over the offsets within ceil(cap / resolution) + 1 cells, saturated; a
    finite cap is required.  Otherwise the EDT runs on the window of their
    bounding box grown by as many cells.  The stamp computes the EDT's
    floats (sqrt of the integer squared offset, then `*= resolution`), so
    both branches give the same bits.  Every distance is sqrt(integer) *
    resolution, monotone in the integer, and saturation is monotone, so
    the min of two saturated fields is bit-identical to the saturated field
    of their union.
    """
    shape = field.shape
    grow = _grow(cap, resolution, shape)
    rows, cols = np.divmod(added, shape[1])
    window = _window(rows, cols, shape, grow)
    side = 2 * grow + 1
    # the cost rule, in cells of the window's EDT: a stamp costs 150 of them
    # plus a 25th of its own cells (about 5 us + 1.1 ns per stamp cell
    # against 27 ns per window cell on a 1024 x 384 grid, 2-vCPU host)
    if math.isfinite(cap) and added.size * (150 + side * side / 25) <= field[window].size:
        offset = np.arange(-grow, grow + 1, dtype=np.float64) ** 2
        stamp = np.sqrt(offset[:, None] + offset[None, :]) * resolution
        stamp[stamp > cap] = np.inf
        out = field.copy()
        for y, x in zip(rows.tolist(), cols.tolist()):
            y0, x0 = max(y - grow, 0), max(x - grow, 0)
            view = out[y0:y + grow + 1, x0:x + grow + 1]
            sy, sx = y0 - y + grow, x0 - x + grow
            np.minimum(view, stamp[sy:sy + view.shape[0], sx:sx + view.shape[1]], out=view)
    else:
        free = np.ones(field[window].shape, dtype=bool)
        free[rows - window[0].start, cols - window[1].start] = False
        near = _edt(free)
        near *= resolution
        near[near > cap] = np.inf
        np.minimum(field[window], near, out=near)
        if near.shape == shape:     # a whole-grid window, such as a fresh build's: no copy
            out = near
        else:
            out = field.copy()
            out[window] = near
    out.setflags(write=False)
    return out


_EDT_ROWS = 64    # rows per block of the full-grid passes; bounds their temporaries


def _edt(free: np.ndarray, indices: bool = False):
    """`ndimage.distance_transform_edt(free)` bit for bit (`free` has a False
    cell), and with `indices` its int32 feature transform, shape (2, h, w).
    The distances, sqrt(dy*dy + dx*dx) of the same exact integer offsets in
    float64, are taken in row blocks: the transform is the one temporary."""
    ft = ndimage.distance_transform_edt(free, return_distances=False, return_indices=True)
    out = np.empty(free.shape)
    for y in range(0, len(out), _EDT_ROWS):
        block = out[y:y + _EDT_ROWS]
        rows, cols = np.ogrid[y:y + len(block), :block.shape[1]]
        dy = (ft[0, y:y + _EDT_ROWS] - rows).astype(np.float64)
        dx = (ft[1, y:y + _EDT_ROWS] - cols).astype(np.float64)
        np.sqrt(dy * dy + dx * dx, out=block)
    return (out, ft) if indices else out


def voronoi_field(grid: OccupancyGrid) -> Raster:
    """Obstacle proximity in [0, 1], falling to 0 both far from obstacles and
    on the edges equidistant between distinct obstacle components; 1 inside
    obstacles and off the grid.  Memory: each full-size array is dropped
    after its last read and the formula runs in row blocks into the output,
    so at most four float64 grids' worth is alive at once.
    """
    alpha, d_max = 10.0, 10.0    # [m] falloff scale, and the range beyond which it is 0
    occupied = grid.occupied_mask()
    shape = grid.cells.shape
    if not occupied.any():
        return Raster(np.zeros(shape), grid.resolution, 1.0)

    d_obs, ft = _edt(~occupied, indices=True)
    d_obs *= grid.resolution

    labels, _ = ndimage.label(occupied, structure=np.ones((3, 3), dtype=int))
    nearest = labels[ft[0], ft[1]]
    del labels, ft

    # cells next to a cell nearest another component; none with one component
    ridge = np.zeros(shape, dtype=bool)
    ridge[:-1, :] |= nearest[:-1, :] != nearest[1:, :]
    ridge[1:, :] |= nearest[1:, :] != nearest[:-1, :]
    ridge[:, :-1] |= nearest[:, :-1] != nearest[:, 1:]
    ridge[:, 1:] |= nearest[:, 1:] != nearest[:, :-1]
    del nearest
    ridge &= ~occupied
    d_vor = np.broadcast_to(np.inf, shape)
    if ridge.any():
        d_vor = _edt(~ridge)
        d_vor *= grid.resolution
    del ridge

    values = np.empty(shape)
    for y in range(0, shape[0], _EDT_ROWS):
        o, v = d_obs[y:y + _EDT_ROWS], d_vor[y:y + _EDT_ROWS]
        with np.errstate(invalid="ignore"):
            vor_term = np.where(np.isinf(v), 1.0, v / np.where(o + v == 0.0, 1.0, o + v))
        block = (alpha / (alpha + o)) * vor_term * ((o - d_max) ** 2 / d_max ** 2)
        block[o > d_max] = 0.0
        block[occupied[y:y + _EDT_ROWS]] = 1.0
        np.clip(block, 0.0, 1.0, out=values[y:y + _EDT_ROWS])
    return Raster(values, grid.resolution, 1.0)


_CHUNK_RAYS = 32768    # rays marched at once; bounds a reveal's memory at any pose count


def raytrace_reveal(truth: OccupancyGrid, belief: OccupancyGrid,
                    sensor_pose: Union[Pose2D, Sequence[Pose2D]],
                    sensor_range: float, n_rays: int) -> int:
    """Reveal belief cells by casting rays on the ground-truth map, from one
    sensor pose or from each of a sequence of poses.

    Rays march cell-by-cell (integer grid traversal, Amanatides & Woo) from
    each sensor along n_rays equally spaced bearings.  Free truth cells are
    copied to the belief until the first occupied cell, which is also
    copied, stopping the ray; a cell entered beyond `sensor_range` or
    outside the grid stops it unrevealed.  A sensor off the grid sees
    nothing, and one in an occupied cell sees only that cell.  What a ray
    sees depends on the truth alone, so the rays of all poses march
    together, `_CHUNK_RAYS` at a time, and the belief is written once: a
    batch reveals the cells and returns the sum of one call per pose, in
    order.  Returns the number of cells that left the UNKNOWN state.
    """
    if truth.cells.shape != belief.cells.shape or truth.resolution != belief.resolution:
        raise ValueError("truth and belief grids must share shape and resolution")
    if not (math.isfinite(sensor_range) and sensor_range > 0.0):
        raise ValueError(f"sensor_range must be finite and positive, got {sensor_range!r}")
    if not isinstance(n_rays, (int, np.integer)):
        raise ValueError(f"n_rays must be an integer, got {n_rays!r}")
    if n_rays < 8:
        raise ValueError("n_rays must be at least 8")

    res = truth.resolution
    h, w = truth.cells.shape
    # ray codes of the truth inside a one-cell border: 0 a cell the ray
    # crosses, 1 an occupied cell it reveals and stops in, 2 the border it
    # stops before
    stride = w + 2
    codes = np.full((h + 2, stride), 2, dtype=np.uint8)
    codes[1:-1, 1:-1] = truth.cells == OCCUPIED
    codes = codes.ravel()

    # a sensor on the grid sees its own cell; one in a crossable cell casts
    # rays from that cell and its offset in it
    raster = Raster(truth.cells, res, OCCUPIED)
    seen = np.zeros(codes.size, dtype=bool)
    starts, rel_x, rel_y = [], [], []
    for pose in [sensor_pose] if isinstance(sensor_pose, Pose2D) else sensor_pose:
        ix0, iy0 = raster.cell_of(pose.x, pose.y)
        if not (0 <= ix0 < w and 0 <= iy0 < h):
            continue
        start = (iy0 + 1) * stride + ix0 + 1
        seen[start] = True
        if codes[start] == 0:
            starts.append(start)
            rel_x.append(pose.x - ix0 * res)
            rel_y.append(pose.y - iy0 * res)
    starts, rel_x, rel_y = np.array(starts, dtype=np.int64), np.array(rel_x), np.array(rel_y)

    bearings = np.arange(n_rays) * (2.0 * math.pi / n_rays)
    dir_x = np.cos(bearings)
    dir_y = np.sin(bearings)
    # ray k casts bearing k % n_rays from sensor k // n_rays
    n_total = starts.size * n_rays
    for first in range(0, n_total, _CHUNK_RAYS):
        sensor, bearing = np.divmod(np.arange(first, min(first + _CHUNK_RAYS, n_total)), n_rays)
        _march(codes, seen, stride, res, sensor_range, starts[sensor],
               rel_x[sensor], rel_y[sensor], dir_x[bearing], dir_y[bearing])

    changed = belief.cells != truth.cells
    changed &= seen.reshape(h + 2, stride)[1:-1, 1:-1]    # border marks dropped
    index = np.flatnonzero(changed)
    if not index.size:
        return 0
    revealed = truth.cells.reshape(-1)[index]
    left_unknown = (int(np.count_nonzero(belief.cells.reshape(-1)[index] == UNKNOWN))
                    - int(np.count_nonzero(revealed == UNKNOWN)))
    belief._write(index, revealed)
    return left_unknown


def _march(codes: np.ndarray, seen: np.ndarray, stride: int, res: float, sensor_range: float,
           flat: np.ndarray, rel_x: np.ndarray, rel_y: np.ndarray, dir_x: np.ndarray,
           dir_y: np.ndarray) -> None:
    """March rays from their flat cells in the bordered `codes`, at their
    offsets in those cells and along their directions, and mark each cell a
    ray enters in `seen`; `flat` is overwritten.

    A ray stops in a cell of nonzero code, and at a cell entered beyond
    `sensor_range`.  A stopped ray is parked at reach -inf, where it reads
    the border cell 0 and marks nothing, until the ray arrays drop the
    parked rays in bulk.
    """
    step_x = np.where(dir_x >= 0.0, 1, -1)
    step_y = np.where(dir_y >= 0.0, stride, -stride)
    # parametric distance to the first x/y cell boundary, then per-cell deltas
    with np.errstate(divide="ignore", invalid="ignore"):
        t_max_x = np.where(dir_x >= 0.0, (res - rel_x) / dir_x, rel_x / -dir_x)
        t_max_y = np.where(dir_y >= 0.0, (res - rel_y) / dir_y, rel_y / -dir_y)
        t_delta_x = res / np.abs(dir_x)
        t_delta_y = res / np.abs(dir_y)
    # axis-parallel rays never cross the other axis' boundaries; their zero
    # delta keeps the masked advance below free of inf * 0
    parallel_x, parallel_y = np.abs(dir_x) < 1e-300, np.abs(dir_y) < 1e-300
    t_max_x[parallel_x], t_delta_x[parallel_x] = np.inf, 0.0
    t_max_y[parallel_y], t_delta_y[parallel_y] = np.inf, 0.0

    reach = np.full(flat.size, sensor_range)
    stopped = 0
    for _ in range(int(2.0 * sensor_range / res) + 4):
        if flat.size == stopped:
            break
        go_x = t_max_x <= t_max_y                 # ties step in x
        t_entry = np.minimum(t_max_x, t_max_y)
        flat += np.where(go_x, step_x, step_y)
        t_max_x += t_delta_x * go_x
        go_x ^= True
        t_max_y += t_delta_y * go_x
        # a cell entered beyond reach reads as the border at flat index 0
        cell = flat * (t_entry <= reach)
        code = codes[cell]
        seen[cell] = True
        now_stopped = np.count_nonzero(code)
        if now_stopped == stopped:
            continue
        if now_stopped < 16 or 8 * now_stopped < flat.size:    # too few to drop
            np.putmask(reach, code, -np.inf)
            stopped = now_stopped
            continue
        running = code == 0
        flat, step_x, step_y = flat[running], step_x[running], step_y[running]
        t_max_x, t_max_y = t_max_x[running], t_max_y[running]
        t_delta_x, t_delta_y = t_delta_x[running], t_delta_y[running]
        reach, stopped = reach[running], 0
