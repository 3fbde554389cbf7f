"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own algorithms: the bounded-curvature
shortest path is re-derived by multistart Newton root-finding on generic
segment words, distances by exhaustive scans, and the 2D cost-to-go field by
a plain heap Dijkstra.  The path-sampling references keep the scalar
per-sample recurrence that the array sampler replaced.
"""
from __future__ import annotations

import heapq
import math
from typing import List, Optional, Tuple

import numpy as np

from hybridplan.geometry import Pose2D, RSPath
from hybridplan.planner import (EXTENDED, PathBuilder, PlannedPath, _extension_cost,
                                _extension_free, _extension_path, geometric_extension,
                                rs_candidate_cost)
from hybridplan.reeds_shepp import rs_all_paths

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi


def _wrap(a):
    return (a + np.pi) % TWO_PI - np.pi


# ---------------------------------------------------------------------------
# Bounded-curvature shortest path via multistart Newton on segment words.
#
# A word is up to 5 segments.  Each segment has a curvature in {+1,-1,0}
# (left/right/straight, unit turn radius) and a signed value  a . p + c
# where p = (t, u, v) are the free parameters.  This covers plain 3-segment
# words, the tied 4-segment words and the fixed quarter-turn words.
# ---------------------------------------------------------------------------

def _build_oracle_words() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    kappas: List[List[float]] = []
    coeffs: List[List[List[float]]] = []
    consts: List[List[float]] = []

    def add(segments):
        k = [s[0] for s in segments]
        a = [list(s[1]) for s in segments]
        c = [s[2] for s in segments]
        while len(k) < 5:
            k.append(0.0)
            a.append([0.0, 0.0, 0.0])
            c.append(0.0)
        kappas.append(k)
        coeffs.append(a)
        consts.append(c)

    kap = {"L": 1.0, "R": -1.0, "S": 0.0}
    t, u, v = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
    mu = (0.0, -1.0, 0.0)
    zero = (0.0, 0.0, 0.0)

    # 3-segment kind sequences with free signed parameters (adjacent equal
    # kinds merge into a single segment, so skip immediate repeats)
    for k1 in "LRS":
        for k2 in "LRS":
            for k3 in "LRS":
                if k1 == k2 or k2 == k3:
                    continue
                add([(kap[k1], t, 0.0), (kap[k2], u, 0.0), (kap[k3], v, 0.0)])

    # tied 4-segment words (middle arcs equal or opposite)
    for k1, k2 in (("L", "R"), ("R", "L")):
        add([(kap[k1], t, 0.0), (kap[k2], u, 0.0), (kap[k1], mu, 0.0), (kap[k2], v, 0.0)])
        add([(kap[k1], t, 0.0), (kap[k2], u, 0.0), (kap[k1], u, 0.0), (kap[k2], v, 0.0)])

    # quarter-turn words: C C(+-pi/2) S C   and the reversed order
    for k1, k2 in (("L", "R"), ("R", "L")):
        for k3 in "LR":
            for sgn in (1.0, -1.0):
                add([(kap[k1], t, 0.0), (kap[k2], zero, sgn * HALF_PI),
                     (0.0, u, 0.0), (kap[k3], v, 0.0)])
                add([(kap[k3], t, 0.0), (0.0, u, 0.0),
                     (kap[k2], zero, sgn * HALF_PI), (kap[k1], v, 0.0)])

    # five-segment words: C C(+-pi/2) S C(+-pi/2) C
    for k1, k2 in (("L", "R"), ("R", "L")):
        for k4, k5 in (("L", "R"), ("R", "L")):
            for s1 in (1.0, -1.0):
                for s2 in (1.0, -1.0):
                    add([(kap[k1], t, 0.0), (kap[k2], zero, s1 * HALF_PI),
                         (0.0, u, 0.0), (kap[k4], zero, s2 * HALF_PI),
                         (kap[k5], v, 0.0)])

    return np.array(kappas), np.array(coeffs), np.array(consts)


_ORACLE_KAPPA, _ORACLE_COEFF, _ORACLE_CONST = _build_oracle_words()
_START_GRID = [-3.0, -1.0, 0.8, 2.6]


def _solve3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched 3x3 solve by Cramer's rule (a is ridge-regularized)."""
    a00, a01, a02 = a[..., 0, 0], a[..., 0, 1], a[..., 0, 2]
    a10, a11, a12 = a[..., 1, 0], a[..., 1, 1], a[..., 1, 2]
    a20, a21, a22 = a[..., 2, 0], a[..., 2, 1], a[..., 2, 2]
    c00 = a11 * a22 - a12 * a21
    c01 = a12 * a20 - a10 * a22
    c02 = a10 * a21 - a11 * a20
    det = a00 * c00 + a01 * c01 + a02 * c02
    det = np.where(np.abs(det) < 1e-300, 1e-300, det)
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    x0 = (b0 * c00 + b1 * (a02 * a21 - a01 * a22) + b2 * (a01 * a12 - a02 * a11)) / det
    x1 = (b0 * c01 + b1 * (a00 * a22 - a02 * a20) + b2 * (a02 * a10 - a00 * a12)) / det
    x2 = (b0 * c02 + b1 * (a01 * a20 - a00 * a21) + b2 * (a00 * a11 - a01 * a10)) / det
    return np.stack([x0, x1, x2], axis=-1)


def _forward_with_jacobian(params: np.ndarray):
    """Compose word segments and differentiate the end pose.

    params: (..., W, 3).  Returns (pose (..., W, 3), jac (..., W, 3, 3))
    where jac[..., i, k] = d pose_i / d param_k.  Uses the closed-form
    derivative  d pos / d v_j = h_j + kappa_j * perp(pos_end - pos_j).
    """
    values = np.einsum("wsp,...wp->...ws", _ORACLE_COEFF, params) + _ORACLE_CONST
    batch = values.shape[:-1]
    n_seg = values.shape[-1]
    x = np.zeros(batch)
    y = np.zeros(batch)
    yaw = np.zeros(batch)
    seg_end = np.empty(batch + (n_seg, 2))
    seg_head = np.empty(batch + (n_seg, 2))
    for i in range(n_seg):
        val = values[..., i]
        kappa = _ORACLE_KAPPA[:, i]
        straight = kappa == 0.0
        yaw2 = yaw + val * kappa
        sin1, cos1 = np.sin(yaw), np.cos(yaw)
        sin2, cos2 = np.sin(yaw2), np.cos(yaw2)
        inv_k = np.where(straight, 1.0, kappa)
        x = np.where(straight, x + val * cos1, x + (sin2 - sin1) / inv_k)
        y = np.where(straight, y + val * sin1, y - (cos2 - cos1) / inv_k)
        yaw = yaw2
        seg_end[..., i, 0] = x
        seg_end[..., i, 1] = y
        # position derivative wrt this segment's signed value
        seg_head[..., i, 0] = np.where(straight, cos1, cos2)
        seg_head[..., i, 1] = np.where(straight, sin1, sin2)
    pose = np.stack([x, y, yaw], axis=-1)
    # d pos / d v_j = head_j + kappa_j * perp(pos_end - pos_j)
    rel = pose[..., None, :2] - seg_end
    dpos = seg_head + _ORACLE_KAPPA[:, :, None] * np.stack([-rel[..., 1], rel[..., 0]], axis=-1)
    # chain through the value coefficients: jac[i, k] = sum_j dpose_i/dv_j * A[j, k]
    jac = np.empty(batch + (3, 3))
    jac[..., 0, :] = np.einsum("...wj,wjk->...wk", dpos[..., 0], _ORACLE_COEFF)
    jac[..., 1, :] = np.einsum("...wj,wjk->...wk", dpos[..., 1], _ORACLE_COEFF)
    jac[..., 2, :] = np.einsum("wj,wjk->wk", _ORACLE_KAPPA, _ORACLE_COEFF)
    return pose, jac


def rs_oracle_lengths(targets: np.ndarray, iters: int = 12, tol: float = 1e-9,
                      chunk: int = 128) -> np.ndarray:
    """Shortest path lengths for normalized targets (N, 3), unit turn radius.

    Multistart Newton over every word structure; invalid/unconverged slots
    are discarded and the minimum achievable length per target returned.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if targets.shape[0] > chunk:
        return np.concatenate([
            rs_oracle_lengths(targets[i:i + chunk], iters=iters, tol=tol, chunk=chunk)
            for i in range(0, targets.shape[0], chunk)
        ])
    n_pairs = targets.shape[0]
    n_words = _ORACLE_KAPPA.shape[0]
    grid = np.array(np.meshgrid(_START_GRID, _START_GRID, _START_GRID)).T.reshape(-1, 3)
    n_starts = grid.shape[0]
    params = np.broadcast_to(grid[None, :, None, :], (n_pairs, n_starts, n_words, 3)).copy()
    tgt = targets[:, None, None, :]

    for _ in range(iters):
        pose, jac = _forward_with_jacobian(params)
        res = pose - tgt
        res[..., 2] = _wrap(res[..., 2])
        jtj = np.einsum("...ij,...ik->...jk", jac, jac) + 1e-12 * np.eye(3)
        jtr = np.einsum("...ij,...i->...j", jac, res)
        step = _solve3(jtj, jtr)
        np.clip(step, -1.5, 1.5, out=step)
        params -= step

    pose, _ = _forward_with_jacobian(params)
    res = pose - tgt
    res[..., 2] = _wrap(res[..., 2])
    err = np.linalg.norm(res, axis=-1)
    values = np.einsum("wsp,...wp->...ws", _ORACLE_COEFF, params) + _ORACLE_CONST
    lengths = np.abs(values).sum(axis=-1)
    lengths[err > tol] = np.inf
    return lengths.reshape(n_pairs, -1).min(axis=1)


def rs_oracle_length(start_pose, goal_pose, turn_radius: float) -> float:
    """Single-pair convenience wrapper around rs_oracle_lengths."""
    dx = goal_pose[0] - start_pose[0]
    dy = goal_pose[1] - start_pose[1]
    c, s = math.cos(start_pose[2]), math.sin(start_pose[2])
    target = np.array([[(c * dx + s * dy) / turn_radius,
                        (-s * dx + c * dy) / turn_radius,
                        _wrap(goal_pose[2] - start_pose[2])]])
    return float(rs_oracle_lengths(target)[0] * turn_radius)


# ---------------------------------------------------------------------------
# Grid oracles
# ---------------------------------------------------------------------------

def brute_distance_transform(occupied: np.ndarray, resolution: float) -> np.ndarray:
    """Exhaustive nearest-occupied-cell-center scan, O(n^2)."""
    h, w = occupied.shape
    out = np.full((h, w), np.inf)
    obs = np.argwhere(occupied)
    if obs.size == 0:
        return out
    iy, ix = np.mgrid[0:h, 0:w]
    for oy, ox in obs:
        d = np.sqrt((iy - oy) ** 2 + (ix - ox) ** 2) * resolution
        np.minimum(out, d, out=out)
    return out


def dijkstra_cost_to_go(blocked: np.ndarray, goal_cell: Tuple[int, int],
                        resolution: float) -> np.ndarray:
    """Plain heapq Dijkstra over the 8-connected grid (reference)."""
    h, w = blocked.shape
    dist = np.full((h, w), np.inf)
    gy, gx = goal_cell
    if blocked[gy, gx]:
        return dist
    dist[gy, gx] = 0.0
    pq = [(0.0, gy, gx)]
    diag = resolution * math.sqrt(2.0)
    while pq:
        d, y, x = heapq.heappop(pq)
        if d > dist[y, x]:
            continue
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dy == 0 and dx == 0:
                    continue
                ny, nx = y + dy, x + dx
                if not (0 <= ny < h and 0 <= nx < w) or blocked[ny, nx]:
                    continue
                nd = d + (diag if dy != 0 and dx != 0 else resolution)
                if nd < dist[ny, nx]:
                    dist[ny, nx] = nd
                    heapq.heappush(pq, (nd, ny, nx))
    return dist


def rectangle_hits_occupied(pose: Tuple[float, float, float],
                            occupied: np.ndarray, resolution: float,
                            length: float, width: float, rear_overhang: float,
                            origin=(0.0, 0.0)) -> bool:
    """True iff any occupied cell center lies inside the exact footprint."""
    x, y, yaw = pose
    c, s = math.cos(yaw), math.sin(yaw)
    h, w = occupied.shape
    half_diag = 0.5 * math.hypot(length, width) + length
    x0 = max(0, int((x - origin[0] - half_diag) / resolution))
    x1 = min(w, int((x - origin[0] + half_diag) / resolution) + 2)
    y0 = max(0, int((y - origin[1] - half_diag) / resolution))
    y1 = min(h, int((y - origin[1] + half_diag) / resolution) + 2)
    if x0 >= x1 or y0 >= y1:
        return False
    sub = occupied[y0:y1, x0:x1]
    ys, xs = np.nonzero(sub)
    if ys.size == 0:
        return False
    cx = origin[0] + (xs + x0 + 0.5) * resolution - x
    cy = origin[1] + (ys + y0 + 0.5) * resolution - y
    lon = cx * c + cy * s
    lat = -cx * s + cy * c
    inside = (lon >= -rear_overhang) & (lon <= length - rear_overhang) & (np.abs(lat) <= width / 2.0)
    return bool(inside.any())


def kappa_dot_rms_direct(kappa_runs: List[np.ndarray], ds: float) -> Tuple[float, float]:
    """Direct summation of the curvature-change RMS, pooled over runs."""
    sq_sum = 0.0
    n = 0
    max_abs = 0.0
    for kappas in kappa_runs:
        for i in range(len(kappas) - 1):
            rate = (kappas[i + 1] - kappas[i]) / ds
            sq_sum += rate * rate
            max_abs = max(max_abs, abs(rate))
            n += 1
    if n == 0:
        raise ValueError("need at least one curvature difference")
    return math.sqrt(sq_sum / n), max_abs


# ---------------------------------------------------------------------------
# Path sampling and analytic expansion, one sample at a time
# ---------------------------------------------------------------------------

def sample_path_scalar(path: RSPath, start: Pose2D, step: float
                       ) -> List[Tuple[float, float, float, float, float, int]]:
    """Samples after each step as (x, y, raw yaw, normalized yaw, kappa, direction).

    The scalar exact-arc recurrence: every step advances the previous
    sample along its arc, and the yaw is normalized only for the output.
    """
    x, y, yaw = start.x, start.y, start.yaw
    out = []
    for seg in path.segments:
        if seg.length <= 0.0:
            continue
        kappa = {"straight": 0.0, "left": 1.0, "right": -1.0}[seg.kind]
        if kappa != 0.0:
            kappa /= path.turn_radius
        n = max(1, math.ceil(seg.length / step))
        ds = seg.length / n * seg.direction
        for _ in range(n):
            if kappa == 0.0:
                x, y = x + ds * math.cos(yaw), y + ds * math.sin(yaw)
            else:
                yaw2 = yaw + ds * kappa
                x = x + (math.sin(yaw2) - math.sin(yaw)) / kappa
                y = y - (math.cos(yaw2) - math.cos(yaw)) / kappa
                yaw = yaw2
            out.append((x, y, yaw, (yaw + math.pi) % TWO_PI - math.pi, kappa, seg.direction))
    return out


def analytic_expansions_reference(pose: Pose2D, goal: Pose2D, checker, config,
                                  turn_radius: float, mode: str, max_steer: float,
                                  parent_direction: int = 0, parent_steer: float = 0.0
                                  ) -> Optional[PlannedPath]:
    """Analytic expansion that samples and checks every candidate as a whole.

    Each candidate is sampled in full by the scalar recurrence, the start
    pose included, and tested in one disk check; the first free candidate
    becomes the suffix.  Costs and the drive-rotate-drive connection reuse
    the planner's own helpers, which the array sampler did not change.
    """
    best_path: Optional[PlannedPath] = None
    best_cost = math.inf
    for cand in rs_all_paths(pose, goal, turn_radius):
        if cand.total_length >= 1e6:
            break
        samples = sample_path_scalar(cand, pose, config.collision_step)
        xs = np.array([pose.x] + [s[0] for s in samples])
        ys = np.array([pose.y] + [s[1] for s in samples])
        yaws = np.array([pose.yaw] + [s[3] for s in samples])
        if not checker.batch_blocked(xs, ys, np.cos(yaws), np.sin(yaws)).any():
            best_cost = rs_candidate_cost(cand, config, max_steer,
                                          parent_direction, parent_steer)
            builder = PathBuilder(pose)
            for x, y, _, yaw, kappa, direction in samples:
                builder.add_drive_sample(x, y, yaw, kappa, direction)
            best_path = builder.finish()
            break
    if mode == EXTENDED:
        ext = geometric_extension(pose, goal, config.extension_segment_length)
        if ext is not None:
            point, pre, delta, post = ext
            cost = _extension_cost(pre, delta, post, config, parent_direction, parent_steer)
            if cost < best_cost and _extension_free(pose, goal, point, pre, delta, post,
                                                    checker, config):
                best_path = _extension_path(pose, goal, point, pre, delta, post, config)
    return best_path
