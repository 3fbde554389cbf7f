"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own algorithms: the bounded-curvature
shortest path is re-derived by multistart Newton root-finding on generic
segment words, distances by exhaustive scans, and the 2D cost-to-go field by
a plain heap Dijkstra.  The Reeds-Shepp references keep the per-word
enumeration and segment build (solvers included) that the word table and
its one solve loop replaced (`rs_all_paths_reference`,
`rs_path_length_reference`), with the segment objects and kind names that
the shipped (turn, direction, length) rows replaced (`reference_rows`
converts); the analytic-expansion and search references solve through
them.  The obstacle-field references keep the whole-grid EDT that the
update from the empty field replaced, the exact update (a window bounded
by every cell's old value) that the field saturated at a cap replaced,
and the saturated bounding-box EDT that the disc stamps of the added cells
replaced (`window_add_reference`).  The route-map reference
keeps the build that map repair replaced: the reshaped max-pool over the
whole fine field and the full flood, from scratch on every call, as
`reference_stack()` builds every disk mask and blocked grid from scratch
instead of recomputing the write's window; its flood is the heap Dijkstra
and its successor table an argmin over the stacked neighbour keys
(`successor_table_reference`), in the stack too.  The coarse-route reference
keeps the scalar 8-neighbour descent loop that the successor table replaced, walked
from scratch on every call (no suffix of the previous route), and the
nearest-cell reference the 5 x 5 scan that the 3 x 3 scan of a finite own
cell replaced.  The
path-sampling references keep the scalar per-sample recurrence that the
array sampler replaced, the path-walking
references keep the segment-index cursor and gear lookup that
`PlannedPath.walk()` replaced, the raytrace reference keeps the masked
all-rays loop that the live-ray march replaced, the search reference
keeps the child loop that costed, keyed and collision-checked every child
and the one object per node that the columnar search state replaced,
the Voronoi-field reference keeps the whole-grid build that the row-block
EDT and early frees replaced, the expansion reference keeps the batch over the surviving drive
primitives that one check over all of them replaced, and the proximity
reference keeps the per-corner lookups that one array lookup replaced.
"""
from __future__ import annotations

import heapq
import math
import time
from contextlib import contextmanager
from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np
from scipy import ndimage

import hybridplan.cli as cli_module
import hybridplan.grid as grid_module
import hybridplan.heuristic as heuristic_module
import hybridplan.mission as mission_module
import hybridplan.planner as planner_module
import hybridplan.simulate as simulate_module
from hybridplan.geometry import Pose2D, move_along_arc, normalize_angle
from hybridplan.grid import OCCUPIED, UNKNOWN, OccupancyGrid, Raster
from hybridplan.heuristic import (AStarPath, DistanceMap, GoalBlockedError, NoRouteError,
                                  build_distance_map, resolution_factor)
from hybridplan.planner import (EXTENDED, STANDARD, BudgetExceededError, DriveSegment,
                                NoPathError, PathBuilder, PlannedPath, PlannerConfig,
                                PlannerFailure, RotationSegment, SearchStats,
                                cost_of, geometric_extension)
from hybridplan.vehicle import CollisionChecker, checker_thresholds

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


# the nonzero value coefficients: for each parameter k, the (segment j,
# per-word coefficient A[:, j, k]) pairs.  Every coefficient is 0 or +-1 and
# no word uses a parameter in more than two segments, so the multiply-adds
# below are exact and their order does not matter.
_PARAM_TERMS = [[(j, _ORACLE_COEFF[:, j, k]) for j in range(_ORACLE_COEFF.shape[1])
                 if _ORACLE_COEFF[:, j, k].any()] for k in range(3)]
_STRAIGHT = (_ORACLE_KAPPA == 0.0).astype(float)
# d yaw / d param: a constant per word
_YAW_JAC = np.einsum("wj,wjk->wk", _ORACLE_KAPPA, _ORACLE_COEFF)


def _segment_values(params) -> list:
    """Signed value of each word segment, from the free parameters (t, u, v)."""
    values = []
    for j in range(_ORACLE_COEFF.shape[1]):
        val = _ORACLE_CONST[:, j]
        for k in range(3):
            if _ORACLE_COEFF[:, j, k].any():
                val = _ORACLE_COEFF[:, j, k] * params[k] + val
        values.append(val)
    return values


def _solve3(a00, a01, a02, a11, a12, a22, b0, b1, b2):
    """Batched symmetric 3x3 solve by Cramer's rule (a is ridge-regularized)."""
    a10, a20, a21 = a01, a02, a12
    c00 = a11 * a22 - a12 * a21
    c01 = a12 * a20 - a10 * a22
    c02 = a10 * a21 - a11 * a20
    det = a00 * c00 + a01 * c01 + a02 * c02
    det = np.where(np.abs(det) < 1e-300, 1e-300, det)
    x0 = (b0 * c00 + b1 * (a02 * a21 - a01 * a22) + b2 * (a01 * a12 - a02 * a11)) / det
    x1 = (b0 * c01 + b1 * (a00 * a22 - a02 * a20) + b2 * (a02 * a10 - a00 * a12)) / det
    x2 = (b0 * c02 + b1 * (a01 * a20 - a00 * a21) + b2 * (a00 * a11 - a01 * a10)) / det
    return x0, x1, x2


def _forward_with_jacobian(params):
    """Compose word segments and differentiate the end position.

    params: (t, u, v), each (..., W).  Returns the end pose (x, y, yaw) and
    the position rows of the Jacobian, jx[k] = d x / d param_k and
    jy[k] = d y / d param_k (d yaw / d param_k is `_YAW_JAC`).  Uses the
    closed-form derivative  d pos / d v_j = head_j + kappa_j * perp(pos_end - pos_j),
    head_j being the heading at the segment's end.
    """
    x = y = yaw = 0.0
    sin1, cos1 = 0.0, 1.0
    ends, heads = [], []
    for j, val in enumerate(_segment_values(params)):
        kappa = _ORACLE_KAPPA[:, j]
        yaw = yaw + val * kappa
        sin2, cos2 = np.sin(yaw), np.cos(yaw)
        # a straight moves val along the heading, an arc of unit radius
        # (kappa = +-1, so dividing by it is multiplying) moves to its chord end
        x = x + (_STRAIGHT[:, j] * val * cos1 + kappa * (sin2 - sin1))
        y = y + (_STRAIGHT[:, j] * val * sin1 - kappa * (cos2 - cos1))
        ends.append((x, y))
        heads.append((cos2, sin2))   # a straight keeps its heading
        sin1, cos1 = sin2, cos2
    # d pos / d v_j = head_j + kappa_j * perp(pos_end - pos_j)
    dx, dy = [], []
    for j, ((xj, yj), (cj, sj)) in enumerate(zip(ends, heads)):
        kappa = _ORACLE_KAPPA[:, j]
        dx.append(cj - kappa * (y - yj))
        dy.append(sj + kappa * (x - xj))
    # chain through the value coefficients: d pos / d p_k = sum_j d pos / d v_j * A[j, k]
    jx, jy = [], []
    for terms in _PARAM_TERMS:
        (j, a), *rest = terms
        jxk, jyk = a * dx[j], a * dy[j]
        for j, a in rest:
            jxk = jxk + a * dx[j]
            jyk = jyk + a * dy[j]
        jx.append(jxk)
        jy.append(jyk)
    return (x, y, yaw), jx, jy


def rs_oracle_lengths(targets: np.ndarray, iters: int = 12, tol: float = 1e-9,
                      chunk: int = 128) -> np.ndarray:
    """Shortest path lengths for normalized targets (N, 3), unit turn radius.

    Multistart Newton over every word structure; invalid/unconverged slots
    are discarded and the minimum achievable length per target returned.
    The normal equations are written out entry by entry, in the order of
    the matrix products they stand for.
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
    params = [np.broadcast_to(grid[None, :, None, k], (n_pairs, n_starts, n_words)).copy()
              for k in range(3)]
    tgt = [targets[:, None, None, k] for k in range(3)]
    jz = [_YAW_JAC[:, k] for k in range(3)]

    for _ in range(iters):
        (x, y, yaw), jx, jy = _forward_with_jacobian(params)
        rx, ry, ryaw = x - tgt[0], y - tgt[1], _wrap(yaw - tgt[2])
        # J^T J + 1e-12 I and J^T r, J's rows being (jx, jy, jz)
        jtj = {(a, b): jx[a] * jx[b] + jy[a] * jy[b] + jz[a] * jz[b]
               for a, b in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))}
        for a in range(3):
            jtj[a, a] = jtj[a, a] + 1e-12
        jtr = [jx[a] * rx + jy[a] * ry + jz[a] * ryaw for a in range(3)]
        step = _solve3(jtj[0, 0], jtj[0, 1], jtj[0, 2], jtj[1, 1], jtj[1, 2], jtj[2, 2], *jtr)
        for p, d in zip(params, step):
            p -= np.clip(d, -1.5, 1.5)

    (x, y, yaw), _, _ = _forward_with_jacobian(params)
    res = np.stack([x - tgt[0], y - tgt[1], _wrap(yaw - tgt[2])], axis=-1)
    err = np.linalg.norm(res, axis=-1)
    lengths = np.abs(np.stack(_segment_values(params), axis=-1)).sum(axis=-1)
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
# Reeds-Shepp words one at a time: the family table, the enumeration and the
# per-word segment build that the shipped word table and its one solve loop
# replaced, kept as they were (solvers included) for the bit-for-bit test.
# ---------------------------------------------------------------------------

_ZERO = 1e-10          # slack on validity inequalities
_MIN_SEG = 1e-12       # segments shorter than this are dropped

LEFT = "left"
RIGHT = "right"
STRAIGHT = "straight"
_TURN_OF = {LEFT: 1.0, RIGHT: -1.0, STRAIGHT: 0.0}   # curvature in units of 1 / turn radius


class RSSegment(NamedTuple):
    kind: str        # left / right / straight
    direction: int   # +1 forward, -1 reverse
    length: float    # arc length in meters, >= 0


class RSPath(NamedTuple):
    """A bounded-curvature path as an ordered list of arc/straight segments."""

    segments: Tuple[RSSegment, ...]
    turn_radius: float
    total_length: float


def reference_rows(path: RSPath) -> List[Tuple[float, int, float]]:
    """The path's (turn, direction, length) rows, the shipped path format."""
    return [(_TURN_OF[seg.kind], seg.direction, seg.length) for seg in path.segments]


def _tau_omega(u: float, v: float, xi: float, eta: float, phi: float) -> Tuple[float, float]:
    delta = normalize_angle(u - v)
    a = math.sin(u) - math.sin(delta)
    b = math.cos(u) - math.cos(delta) - 1.0
    t1 = math.atan2(eta * a - xi * b, xi * a + eta * b)
    t2 = 2.0 * (math.cos(delta) - math.cos(v) - math.cos(u)) + 3.0
    tau = normalize_angle(t1 + math.pi) if t2 < 0.0 else normalize_angle(t1)
    omega = normalize_angle(tau - u + v - phi)
    return tau, omega



# Family solvers: normalized target (x, y, phi) in units of the turn
# radius; return (t, u, v) or None when the family does not apply.

def _lsl(x, y, phi):
    u, t = math.hypot(x - math.sin(phi), y - 1.0 + math.cos(phi)), math.atan2(y - 1.0 + math.cos(phi), x - math.sin(phi))
    if t < -_ZERO:
        return None
    v = normalize_angle(phi - t)
    if v < -_ZERO:
        return None
    return t, u, v


def _lsr(x, y, phi):
    dx = x + math.sin(phi)
    dy = y - 1.0 - math.cos(phi)
    u1sq = dx * dx + dy * dy
    if u1sq < 4.0:
        return None
    t1 = math.atan2(dy, dx)
    u = math.sqrt(u1sq - 4.0)
    t = normalize_angle(t1 + math.atan2(2.0, u))
    v = normalize_angle(t - phi)
    if t < -_ZERO or v < -_ZERO:
        return None
    return t, u, v


def _lrl(x, y, phi):
    dx = x - math.sin(phi)
    dy = y - 1.0 + math.cos(phi)
    u1 = math.hypot(dx, dy)
    if u1 > 4.0:
        return None
    theta = math.atan2(dy, dx)
    u = -2.0 * math.asin(0.25 * u1)
    t = normalize_angle(theta + 0.5 * u + math.pi)
    v = normalize_angle(phi - t + u)
    if t < -_ZERO or u > _ZERO:
        return None
    return t, u, v


def _sls(x, y, phi):
    # straight / left arc of angle phi / straight, from the composition
    # x = t + sin(phi) + v cos(phi),  y = 1 - cos(phi) + v sin(phi)
    phi_w = normalize_angle(phi)
    if not (1e-9 < phi_w < math.pi - 1e-9):
        return None
    v = (y - 1.0 + math.cos(phi_w)) / math.sin(phi_w)
    t = x - math.sin(phi_w) - v * math.cos(phi_w)
    if t < -_ZERO or v < -_ZERO:
        return None
    return t, phi_w, v


def _lrlrn(x, y, phi):
    xi = x + math.sin(phi)
    eta = y - 1.0 - math.cos(phi)
    rho = 0.25 * (2.0 + math.hypot(xi, eta))
    if rho > 1.0:
        return None
    u = math.acos(rho)
    t, v = _tau_omega(u, -u, xi, eta, phi)
    if t < -_ZERO or v > _ZERO:
        return None
    return t, u, v


def _lrlrp(x, y, phi):
    xi = x + math.sin(phi)
    eta = y - 1.0 - math.cos(phi)
    rho = (20.0 - xi * xi - eta * eta) / 16.0
    if rho < 0.0 or rho > 1.0:
        return None
    u = -math.acos(rho)
    if u < -HALF_PI - _ZERO:
        return None
    t, v = _tau_omega(u, u, xi, eta, phi)
    if t < -_ZERO or v < -_ZERO:
        return None
    return t, u, v


def _lrsl(x, y, phi):
    xi = x - math.sin(phi)
    eta = y - 1.0 + math.cos(phi)
    rho = math.hypot(xi, eta)
    if rho < 2.0:
        return None
    theta = math.atan2(eta, xi)
    r = math.sqrt(rho * rho - 4.0)
    u = 2.0 - r
    t = normalize_angle(theta + math.atan2(r, -2.0))
    v = normalize_angle(phi - HALF_PI - t)
    if t < -_ZERO or u > _ZERO or v > _ZERO:
        return None
    return t, u, v


def _lrsr(x, y, phi):
    xi = x + math.sin(phi)
    eta = y - 1.0 - math.cos(phi)
    rho = math.hypot(-eta, xi)
    if rho < 2.0:
        return None
    t = math.atan2(xi, -eta)
    u = 2.0 - rho
    v = normalize_angle(t + HALF_PI - phi)
    if t < -_ZERO or u > _ZERO or v > _ZERO:
        return None
    return t, u, v


def _lrslr(x, y, phi):
    xi = x + math.sin(phi)
    eta = y - 1.0 - math.cos(phi)
    rho = math.hypot(xi, eta)
    if rho < 2.0:
        return None
    u = 4.0 - math.sqrt(rho * rho - 4.0)
    if u > _ZERO:
        return None
    t = normalize_angle(math.atan2((4.0 - u) * xi - 2.0 * eta, -2.0 * xi + (u - 4.0) * eta))
    v = normalize_angle(t - phi)
    if t < -_ZERO or v < -_ZERO:
        return None
    return t, u, v


class _Family(NamedTuple):
    """A word family: its solver and its segments as (kind, role), role
    being 't'/'u'/'v'/'-u' for the free parameters or a float for arcs fixed
    at +-pi/2.  The tied / fixed segments add `extra_u` * |u| +
    `extra_const` to the length; `backwards` families also need the
    reversed word order, which reflection alone does not cover."""

    solve: Callable
    pattern: Tuple
    extra_u: float = 0.0
    extra_const: float = 0.0
    backwards: bool = False


_FAMILIES = (
    _Family(_lsl, ((LEFT, "t"), (STRAIGHT, "u"), (LEFT, "v"))),
    _Family(_lsr, ((LEFT, "t"), (STRAIGHT, "u"), (RIGHT, "v"))),
    _Family(_lrl, ((LEFT, "t"), (RIGHT, "u"), (LEFT, "v")), backwards=True),
    _Family(_sls, ((STRAIGHT, "t"), (LEFT, "u"), (STRAIGHT, "v"))),
    _Family(_lrlrn, ((LEFT, "t"), (RIGHT, "u"), (LEFT, "-u"), (RIGHT, "v")), extra_u=1.0),
    _Family(_lrlrp, ((LEFT, "t"), (RIGHT, "u"), (LEFT, "u"), (RIGHT, "v")), extra_u=1.0),
    _Family(_lrsl, ((LEFT, "t"), (RIGHT, -HALF_PI), (STRAIGHT, "u"), (LEFT, "v")),
            extra_const=HALF_PI, backwards=True),
    _Family(_lrsr, ((LEFT, "t"), (RIGHT, -HALF_PI), (STRAIGHT, "u"), (RIGHT, "v")),
            extra_const=HALF_PI, backwards=True),
    _Family(_lrslr, ((LEFT, "t"), (RIGHT, -HALF_PI), (STRAIGHT, "u"), (LEFT, -HALF_PI),
                     (RIGHT, "v")), extra_const=math.pi),
)

# every (family, timeflip, reflect, backwards) word
_WORDS = [(family, timeflip, reflect, backwards)
          for family in _FAMILIES
          for backwards in ((False, True) if family.backwards else (False,))
          for timeflip in (False, True)
          for reflect in (False, True)]
assert len(_WORDS) == 48


def _enumerate_candidates(x: float, y: float, phi: float) -> Iterable[Tuple[float, Tuple, Tuple[float, float, float]]]:
    """Yield (total_length, word, params) for every applicable word."""
    sin_phi = math.sin(phi)
    cos_phi = math.cos(phi)
    xb = x * cos_phi + y * sin_phi
    yb = x * sin_phi - y * cos_phi
    for word in _WORDS:
        family, timeflip, reflect, backwards = word
        wx, wy = (xb, yb) if backwards else (x, y)
        wphi = phi
        if timeflip:
            wx, wphi = -wx, -wphi
        if reflect:
            wy, wphi = -wy, -wphi
        sol = family.solve(wx, wy, wphi)
        if sol is None:
            continue
        t, u, v = sol
        total = (abs(t) + abs(u) + abs(v)
                 + family.extra_u * abs(u) + family.extra_const)
        yield total, word, (t, u, v)


def _word_segments(word, t: float, u: float, v: float, turn_radius: float) -> Tuple[RSSegment, ...]:
    """The word's segments scaled to `turn_radius`, dropping empty ones."""
    family, timeflip, reflect, backwards = word
    params = {"t": t, "u": u, "v": v, "-u": -u}
    segments = []
    for kind, role in (reversed(family.pattern) if backwards else family.pattern):
        value = role if isinstance(role, float) else params[role]
        if timeflip:
            value = -value
        if reflect and kind != STRAIGHT:
            kind = LEFT if kind == RIGHT else RIGHT
        if abs(value) > _MIN_SEG:
            segments.append(RSSegment(kind, 1 if value >= 0.0 else -1, abs(value) * turn_radius))
    return tuple(segments)


def _relative_target(start: Pose2D, goal: Pose2D, turn_radius: float) -> Tuple[float, float, float]:
    if not turn_radius > 0.0:
        raise ValueError("turn_radius must be positive")
    dx = goal.x - start.x
    dy = goal.y - start.y
    c, s = math.cos(start.yaw), math.sin(start.yaw)
    return ((c * dx + s * dy) / turn_radius,
            (-s * dx + c * dy) / turn_radius,
            normalize_angle(goal.yaw - start.yaw))


def rs_all_paths_reference(start: Pose2D, goal: Pose2D, turn_radius: float) -> List[RSPath]:
    """Every applicable word's path, shortest first: the per-word segment build."""
    x, y, phi = _relative_target(start, goal, turn_radius)
    cands = sorted(_enumerate_candidates(x, y, phi), key=lambda c: c[0])
    paths = []
    for _, word, (t, u, v) in cands:
        segments = _word_segments(word, t, u, v, turn_radius)
        paths.append(RSPath(segments=segments, turn_radius=turn_radius,
                            total_length=sum(seg.length for seg in segments)))
    return paths


def rs_path_length_reference(start: Pose2D, goal: Pose2D, turn_radius: float) -> float:
    """Length of the shortest path: the minimum of the enumeration."""
    x, y, phi = _relative_target(start, goal, turn_radius)
    best = math.inf
    for total, _, _ in _enumerate_candidates(x, y, phi):
        if total < best:
            best = total
    return best * turn_radius


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


def distance_transform_reference(grid: OccupancyGrid) -> np.ndarray:
    """The obstacle field in one piece: scipy's EDT of the whole occupied
    mask, in meters; +inf everywhere without obstacles."""
    occupied = grid.cells == OCCUPIED
    if not occupied.any():
        return np.full(occupied.shape, np.inf)
    return ndimage.distance_transform_edt(~occupied) * grid.resolution


def add_obstacles_reference(field: np.ndarray, added: np.ndarray, resolution: float,
                            cap: float = math.inf) -> np.ndarray:
    """The exact update that the saturated window replaced, whatever the cap:
    `field` lowered to the distance to the `added` cells.

    A cell's distance to the added cells' bounding box, rounded as the EDT
    rounds, bounds its distance to the added cells from below; a cell whose
    old value is within that bound keeps it, so only the window over the
    other cells is recomputed.
    """
    rows = np.flatnonzero(added.any(axis=1))
    cols = np.flatnonzero(added.any(axis=0))
    iy = np.arange(added.shape[0], dtype=np.float64)
    ix = np.arange(added.shape[1], dtype=np.float64)
    dy = np.maximum(np.maximum(rows[0] - iy, iy - rows[-1]), 0.0)
    dx = np.maximum(np.maximum(cols[0] - ix, ix - cols[-1]), 0.0)
    # true on every added cell
    reach = field > np.sqrt((dy * dy)[:, None] + (dx * dx)[None, :]) * resolution
    rows = np.flatnonzero(reach.any(axis=1))
    cols = np.flatnonzero(reach.any(axis=0))
    window = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
    near = ndimage.distance_transform_edt(~added[window])
    near *= resolution
    out = field.copy()
    np.minimum(out[window], near, out=out[window])
    out.setflags(write=False)
    return out


def window_add_reference(field: np.ndarray, added: np.ndarray, resolution: float,
                         cap: float) -> np.ndarray:
    """The saturated update that the disc stamps replaced: `field` lowered
    to the saturated distance to the `added` cells (a boolean mask) by one
    EDT over their bounding box grown by ceil(cap / resolution) + 1 cells."""
    rows = np.flatnonzero(added.any(axis=1))
    cols = np.flatnonzero(added.any(axis=0))
    grow = math.ceil(min(cap / resolution, max(added.shape))) + 1
    window = (slice(max(rows[0] - grow, 0), rows[-1] + grow + 1),
              slice(max(cols[0] - grow, 0), cols[-1] + grow + 1))
    near = ndimage.distance_transform_edt(~added[window])
    near *= resolution
    near[near > cap] = np.inf
    out = field.copy()
    np.minimum(out[window], near, out=out[window])
    out.setflags(write=False)
    return out


def voronoi_field_reference(grid: OccupancyGrid) -> Raster:
    """The Voronoi field with every array whole: scipy's EDT with its indices,
    all intermediates alive to the end, and the value formula over the whole
    grid at once (the form that the row-block `_edt` and freeing replaced)."""
    alpha, d_max = 10.0, 10.0    # [m] falloff scale, and the range beyond which it is 0
    occupied = grid.occupied_mask()
    shape = grid.cells.shape
    if not occupied.any():
        return Raster(np.zeros(shape), grid.resolution, 1.0)

    edt, (ind_y, ind_x) = ndimage.distance_transform_edt(~occupied, return_indices=True)
    d_obs = edt * grid.resolution

    labels, _ = ndimage.label(occupied, structure=np.ones((3, 3), dtype=int))
    nearest = labels[ind_y, ind_x]

    # cells next to a cell nearest another component; none with one component
    ridge = np.zeros(shape, dtype=bool)
    ridge[:-1, :] |= nearest[:-1, :] != nearest[1:, :]
    ridge[1:, :] |= nearest[1:, :] != nearest[:-1, :]
    ridge[:, :-1] |= nearest[:, :-1] != nearest[:, 1:]
    ridge[:, 1:] |= nearest[:, 1:] != nearest[:, :-1]
    ridge &= ~occupied
    if ridge.any():
        d_vor = ndimage.distance_transform_edt(~ridge) * grid.resolution
    else:
        d_vor = np.full(shape, np.inf)

    with np.errstate(invalid="ignore"):
        vor_term = np.where(np.isinf(d_vor), 1.0, d_vor / np.where(d_obs + d_vor == 0.0, 1.0, d_obs + d_vor))
    values = (alpha / (alpha + d_obs)) * vor_term * ((d_obs - d_max) ** 2 / d_max ** 2)
    values[d_obs > d_max] = 0.0
    values[occupied] = 1.0
    return Raster(np.clip(values, 0.0, 1.0), grid.resolution, 1.0)


def flat_mask(shape, index: np.ndarray) -> np.ndarray:
    """The boolean mask of the flat row-major cells `index`."""
    mask = np.zeros(shape, dtype=bool)
    mask.reshape(-1)[index] = True
    return mask


def saturated(field: np.ndarray, cap: float) -> np.ndarray:
    """`field` with every value above `cap` set to +inf."""
    return np.where(field > cap, np.inf, field)


@contextmanager
def reference_stack():
    """Inside, every grid builds every derived value from empty:
    `OccupancyGrid.derived` hands each build None in place of the value of
    the generation before and of the cells added since, so no field, disk
    mask or blocked grid is updated from an earlier one, and the obstacle
    field is exact (`add_obstacles_reference`, handed the added cells as a
    mask) at any cap.
    Every route map is flooded from scratch by the heap Dijkstra, its
    successor table by `successor_table_reference` (`route_flood_reference`).
    The mission's route is the scalar descent from scratch on every tick
    (`extract_astar_path_reference`, which ignores the previous route),
    every nearest-cell lookup is the 5 x 5 scan, every tick checks the
    path for collisions in full, with no carried verdict, every mission
    search is `plan_reference` (one object per node, every child checked
    through `batch_blocked`; a direct `planner.plan` call checks its drive
    primitives through `expansion_blocked_reference`), every analytic attempt samples and
    checks each Reeds-Shepp candidate whole, shortest first
    (`analytic_expansions_reference`), every reveal, the mission's and
    the `map.svg` replay's, is the masked all-rays loop
    (`raytrace_reveal_reference`), and the scoring's Voronoi field is built
    whole (`voronoi_field_reference`)."""
    saved = (OccupancyGrid.derived, grid_module._add_obstacles, heuristic_module._repair_flood,
             mission_module.extract_astar_path, DistanceMap.nearest_reachable_cell,
             mission_module.carried_path_collision, CollisionChecker.expansion_blocked,
             planner_module.analytic_expansions, mission_module.plan,
             simulate_module.raytrace_reveal, cli_module.raytrace_reveal,
             simulate_module.voronoi_field)
    derived = saved[0]
    OccupancyGrid.derived = lambda self, key, build: derived(
        self, key, lambda previous, added: build(None, None))
    grid_module._add_obstacles = lambda field, added, resolution, cap: add_obstacles_reference(
        field, flat_mask(field.shape, added), resolution, cap)
    heuristic_module._repair_flood = (
        lambda previous, blocked, goal_cell, resolution: route_flood_reference(
            blocked, goal_cell, resolution))
    mission_module.extract_astar_path = (
        lambda dmap, start, previous=None: extract_astar_path_reference(dmap, start))
    DistanceMap.nearest_reachable_cell = nearest_reachable_cell_reference
    mission_module.carried_path_collision = (
        lambda state, belief, disks: mission_module.check_path_collision(
            state.current_path, state.progress_s, belief, disks, state.rotations_done))

    def expansion_blocked(checker, x, y, c, s, samples):
        drives = list(range(samples.shape[1]))
        blocked = expansion_blocked_reference(checker, samples, x, y, c, s, drives)
        return [p in blocked for p in drives]
    CollisionChecker.expansion_blocked = expansion_blocked
    planner_module.analytic_expansions = analytic_expansions_reference
    mission_module.plan = plan_reference
    simulate_module.raytrace_reveal = cli_module.raytrace_reveal = raytrace_reveal_reference
    simulate_module.voronoi_field = voronoi_field_reference
    try:
        yield
    finally:
        (OccupancyGrid.derived, grid_module._add_obstacles, heuristic_module._repair_flood,
         mission_module.extract_astar_path, DistanceMap.nearest_reachable_cell,
         mission_module.carried_path_collision, CollisionChecker.expansion_blocked,
         planner_module.analytic_expansions, mission_module.plan,
         simulate_module.raytrace_reveal, cli_module.raytrace_reveal,
         simulate_module.voronoi_field) = saved


def raytrace_reveal_reference(truth: OccupancyGrid, belief: OccupancyGrid, sensor_pose,
                              sensor_range: float, n_rays: int = 720) -> int:
    """The masked all-rays DDA loop that the live-ray march replaced, one
    pose at a time.

    `sensor_pose` is one pose or a sequence of poses, revealed in order,
    each into the belief as it stands after the one before.  Every step
    advances all n_rays rays under an `active` mask, for up to
    2 * range / resolution + 4 steps, revealing into a full copy of the
    belief.  Returns the number of cells that left the UNKNOWN state.
    """
    if not isinstance(sensor_pose, Pose2D):
        return sum(raytrace_reveal_reference(truth, belief, pose, sensor_range, n_rays)
                   for pose in sensor_pose)
    if truth.cells.shape != belief.cells.shape or truth.resolution != belief.resolution:
        raise ValueError("truth and belief grids must share shape and resolution")
    if sensor_range <= 0.0:
        raise ValueError("sensor_range must be positive")
    if n_rays < 8:
        raise ValueError("n_rays must be at least 8")

    res = truth.resolution
    occ = truth.cells == OCCUPIED
    h, w = occ.shape
    ix0 = int(math.floor(sensor_pose.x / res))
    iy0 = int(math.floor(sensor_pose.y / res))
    if not (0 <= ix0 < w and 0 <= iy0 < h):
        return 0

    unknown_before = int(np.count_nonzero(belief.cells == UNKNOWN))

    bearings = np.arange(n_rays) * (2.0 * math.pi / n_rays)
    dir_x = np.cos(bearings)
    dir_y = np.sin(bearings)

    ix = np.full(n_rays, ix0, dtype=np.int64)
    iy = np.full(n_rays, iy0, dtype=np.int64)
    step_x = np.where(dir_x >= 0.0, 1, -1)
    step_y = np.where(dir_y >= 0.0, 1, -1)

    # parametric distance to the first x/y cell boundary, then per-cell deltas
    rel_x = sensor_pose.x - ix0 * res
    rel_y = sensor_pose.y - iy0 * res
    with np.errstate(divide="ignore", invalid="ignore"):
        t_max_x = np.where(dir_x >= 0.0, (res - rel_x) / dir_x, rel_x / -dir_x)
        t_max_y = np.where(dir_y >= 0.0, (res - rel_y) / dir_y, rel_y / -dir_y)
        t_delta_x = res / np.abs(dir_x)
        t_delta_y = res / np.abs(dir_y)
    # axis-parallel rays never cross the other axis' boundaries
    t_max_x = np.where(np.abs(dir_x) < 1e-300, np.inf, t_max_x)
    t_max_y = np.where(np.abs(dir_y) < 1e-300, np.inf, t_max_y)

    # reveal into a copy, the sensor's own cell first
    cells = belief.cells.copy()
    cells[iy0, ix0] = truth.cells[iy0, ix0]
    active = ~np.full(n_rays, occ[iy0, ix0])

    max_steps = int(2.0 * sensor_range / res) + 4
    for _ in range(max_steps):
        if not active.any():
            break
        go_x = t_max_x <= t_max_y
        t_entry = np.where(go_x, t_max_x, t_max_y)
        ix = np.where(active & go_x, ix + step_x, ix)
        iy = np.where(active & ~go_x, iy + step_y, iy)
        t_max_x = np.where(active & go_x, t_max_x + t_delta_x, t_max_x)
        t_max_y = np.where(active & ~go_x, t_max_y + t_delta_y, t_max_y)
        active &= t_entry <= sensor_range
        active &= (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
        if not active.any():
            break
        ay = iy[active]
        ax = ix[active]
        cells[ay, ax] = truth.cells[ay, ax]
        hit = np.zeros(n_rays, dtype=bool)
        hit[active] = occ[ay, ax]
        active &= ~hit

    if not np.array_equal(cells, belief.cells):
        belief.set_cells(..., cells)
    return unknown_before - int(np.count_nonzero(cells == UNKNOWN))


def dijkstra_cost_to_go(blocked: np.ndarray, goal_cell: Tuple[int, int],
                        resolution: float) -> np.ndarray:
    """Plain heapq Dijkstra over the 8-connected grid (reference), on flat
    Python lists."""
    h, w = blocked.shape
    dist = [math.inf] * (h * w)
    free = (~blocked).reshape(-1).tolist()
    gy, gx = goal_cell
    if not free[gy * w + gx]:
        return np.array(dist).reshape(h, w)
    dist[gy * w + gx] = 0.0
    pq = [(0.0, gy, gx)]
    diag = resolution * math.sqrt(2.0)
    steps = [(dy, dx, diag if dy and dx else resolution)
             for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx]
    while pq:
        d, y, x = heapq.heappop(pq)
        if d > dist[y * w + x]:
            continue
        for dy, dx, edge in steps:
            ny, nx = y + dy, x + dx
            if 0 <= ny < h and 0 <= nx < w and free[ny * w + nx]:
                nd = d + edge
                if nd < dist[ny * w + nx]:
                    dist[ny * w + nx] = nd
                    heapq.heappush(pq, (nd, ny, nx))
    return np.array(dist).reshape(h, w)


def successor_table_reference(values: np.ndarray, resolution: float) -> memoryview:
    """The successor table of `values` from scratch, read-only: per row-major
    cell, the neighbour of lowest (value + edge cost, row-major index), as
    the scalar descent ranks them, by one argmin (the first of equal keys)
    over the 8 shifted key planes stacked in row-major neighbour order;
    a non-finite value counts as +inf, and a cell with no finite neighbour
    gets -1."""
    h, w = values.shape
    padded = np.pad(np.where(np.isfinite(values), values, np.inf), 1, constant_values=np.inf)
    steps = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx]
    edges = [resolution * math.sqrt(2.0) if dy and dx else resolution for dy, dx in steps]
    keys = np.stack([padded[1 + dy:1 + dy + h, 1 + dx:1 + dx + w] + edge
                     for (dy, dx), edge in zip(steps, edges)])
    first = np.argmin(keys, axis=0)
    offset = np.array([dy * w + dx for dy, dx in steps])[first]
    table = np.where(np.isfinite(keys.min(axis=0)), np.arange(h * w).reshape(h, w) + offset, -1)
    table = table.astype(np.int32).reshape(-1)
    table.setflags(write=False)
    return memoryview(table)


def route_flood_reference(blocked: np.ndarray, goal_cell: Tuple[int, int],
                          resolution: float) -> Tuple[np.ndarray, memoryview]:
    """The route map of `blocked` toward the (x, y) `goal_cell` from scratch:
    the heap Dijkstra's values and their `successor_table_reference`, both
    read-only."""
    values = dijkstra_cost_to_go(blocked, goal_cell[::-1], resolution)
    values.setflags(write=False)
    return values, successor_table_reference(values, resolution)


def downsample_blocked_reference(fine_blocked: np.ndarray, factor: int) -> np.ndarray:
    """The max-pool as one reduction over a (ch, factor, cw, factor) view of
    the zero-padded fine grid (the form the strided pool replaced)."""
    h, w = fine_blocked.shape
    ch = -(-h // factor)
    cw = -(-w // factor)
    padded = np.zeros((ch * factor, cw * factor), dtype=bool)
    padded[:h, :w] = fine_blocked
    return padded.reshape(ch, factor, cw, factor).any(axis=(1, 3))


def build_distance_map_reference(belief: OccupancyGrid, goal: Pose2D,
                                 config: PlannerConfig) -> DistanceMap:
    """The route map built from scratch, as before map repair: the
    whole-grid obstacle field, the reshaped max-pool and a full flood by
    the heap Dijkstra, whose values are the floats of the library's flood
    (each is the min over the neighbours of fl(value + edge)), with the
    successor table of `successor_table_reference`."""
    planning_resolution, inflation_radius = config.xy_resolution, config.inflation_radius
    fine = distance_transform_reference(belief)
    factor = resolution_factor(planning_resolution, belief.resolution)
    blocked = downsample_blocked_reference(fine <= inflation_radius, factor)
    coarse = Raster(blocked, planning_resolution, True)
    if coarse.at(goal.x, goal.y):
        raise GoalBlockedError("goal blocked")
    goal_cell = coarse.cell_of(goal.x, goal.y)
    values, successor = route_flood_reference(blocked, goal_cell, planning_resolution)
    return DistanceMap(values, planning_resolution, math.inf,
                       blocked=blocked, goal_cell=goal_cell, successor=successor)


def nearest_reachable_cell_reference(dmap, x: float, y: float) -> Optional[Tuple[int, int]]:
    """The 5 x 5 scan that the 3 x 3 scan of a finite own cell replaced: the
    finite-valued cell within two cells of (x, y)'s own with the lowest
    (squared distance to its centre, row-major index) key."""
    ix0, iy0 = dmap.cell_of(x, y)
    h, w = dmap.values.shape
    best = None
    for iy in range(max(0, iy0 - 2), min(h, iy0 + 3)):
        for ix in range(max(0, ix0 - 2), min(w, ix0 + 3)):
            if not math.isfinite(dmap.values[iy, ix]):
                continue
            cx, cy = dmap.cell_center(ix, iy)
            key = ((cx - x) ** 2 + (cy - y) ** 2, iy * w + ix)
            if best is None or key < best[0]:
                best = (key, (ix, iy))
    return None if best is None else best[1]


def extract_astar_path_reference(dmap, start: Pose2D) -> AStarPath:
    """The scalar neighbour loop that the successor-table walk replaced,
    from the 5 x 5 nearest-cell scan and from scratch on every call.

    Each step scans the 8 neighbours of the current cell for the lowest
    (value + edge cost, row-major index) key, skipping non-finite values.
    """
    cell = nearest_reachable_cell_reference(dmap, start.x, start.y)
    if cell is None:
        raise NoRouteError("no 2D route")
    h, w = dmap.values.shape
    res = dmap.resolution
    diag = res * math.sqrt(2.0)

    ix, iy = cell
    points = [dmap.cell_center(ix, iy)]
    cum = [0.0]
    for _ in range(h * w):
        if (ix, iy) == dmap.goal_cell:
            break
        best = None
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dy == 0 and dx == 0:
                    continue
                nx, ny = ix + dx, iy + dy
                if not (0 <= nx < w and 0 <= ny < h):
                    continue
                v = dmap.values[ny, nx]
                if not math.isfinite(v):
                    continue
                edge = diag if dx != 0 and dy != 0 else res
                key = (v + edge, ny * w + nx)
                if best is None or key < best[0]:
                    best = (key, nx, ny, edge)
        if best is None:
            raise NoRouteError("no 2D route")
        _, ix, iy, edge = best
        points.append(dmap.cell_center(ix, iy))
        cum.append(cum[-1] + edge)
    else:
        raise NoRouteError("descent did not reach the goal cell")
    return AStarPath(points=np.array(points), cumulative_s=np.array(cum))


def rectangle_hits_occupied(pose: Tuple[float, float, float],
                            occupied: np.ndarray, resolution: float,
                            length: float, width: float, rear_overhang: float) -> bool:
    """True iff any occupied cell center lies inside the exact footprint."""
    x, y, yaw = pose
    c, s = math.cos(yaw), math.sin(yaw)
    h, w = occupied.shape
    half_diag = 0.5 * math.hypot(length, width) + length
    x0 = max(0, int((x - half_diag) / resolution))
    x1 = min(w, int((x + half_diag) / resolution) + 2)
    y0 = max(0, int((y - half_diag) / resolution))
    y1 = min(h, int((y + half_diag) / resolution) + 2)
    if x0 >= x1 or y0 >= y1:
        return False
    sub = occupied[y0:y1, x0:x1]
    ys, xs = np.nonzero(sub)
    if ys.size == 0:
        return False
    cx = (xs + x0 + 0.5) * resolution - x
    cy = (ys + y0 + 0.5) * resolution - y
    lon = cx * c + cy * s
    lat = -cx * s + cy * c
    inside = (lon >= -rear_overhang) & (lon <= length - rear_overhang) & (np.abs(lat) <= width / 2.0)
    return bool(inside.any())


def footprint_overlaps(driven: PlannedPath, truth: OccupancyGrid, vehicle) -> int:
    """The driven poses whose exact footprint holds an occupied truth cell
    center: every drive sample, and each rotation at 5 degree steps."""
    occ = truth.cells == OCCUPIED
    bad = 0
    for seg in driven.segments:
        if isinstance(seg, DriveSegment):
            poses = zip(seg.xs, seg.ys, seg.yaws)
        else:
            n = max(2, int(abs(seg.delta) / math.radians(5.0)) + 1)
            poses = ((seg.x, seg.y, seg.from_yaw + seg.delta * i / (n - 1))
                     for i in range(n))
        for x, y, yaw in poses:
            if rectangle_hits_occupied((float(x), float(y), float(yaw)), occ,
                                       truth.resolution, vehicle.length, vehicle.width,
                                       vehicle.rear_overhang):
                bad += 1
    return bad


# ---------------------------------------------------------------------------
# Scalar footprint disk tests: the per-disk loop the vectorized collision
# checker replaced.  Lookups are quantized to cells, every radius is padded
# by half a cell diagonal, and points off the grid count as colliding.
# ---------------------------------------------------------------------------

def _field_at(field: np.ndarray, resolution: float, x: float, y: float,
              outside: float = -math.inf) -> float:
    ix = int(math.floor(x / resolution))
    iy = int(math.floor(y / resolution))
    h, w = field.shape
    if not (0 <= ix < w and 0 <= iy < h):
        return outside
    return float(field[iy, ix])


def pose_collides(pose: Pose2D, disks, field: np.ndarray, resolution: float) -> bool:
    """Any footprint disk closer to an obstacle than its padded radius."""
    threshold = disks.radius + resolution * math.sqrt(2.0) / 2.0
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    for offset in disks.centers:
        if _field_at(field, resolution, pose.x + offset * c, pose.y + offset * s) < threshold:
            return True
    return False


def rotation_collides(pose: Pose2D, disks, field: np.ndarray, resolution: float) -> bool:
    """The circle holding the footprint at every yaw is not obstacle free."""
    threshold = disks.swept_radius + resolution * math.sqrt(2.0) / 2.0
    return _field_at(field, resolution, pose.x, pose.y) < threshold


def clear_within_reference(checker: CollisionChecker, x: float, y: float) -> bool:
    """The clear test that `CollisionChecker.expansion_blocked` inlined: the
    box of half side `reach` + 1e-6 m around (x, y) lies on the grid, and the
    checker's field there reaches the clear threshold of `checker_thresholds`."""
    field, m = checker.field, checker.reach + 1e-6
    res = field.resolution
    h, w = field.values.shape
    on_grid = (math.floor((x - m) / res) >= 0 and math.floor((y - m) / res) >= 0
               and math.floor((x + m) / res) < w and math.floor((y + m) / res) < h)
    (clear_at,) = [t for name, t in checker_thresholds(checker.disks, res, checker.reach)
                   if name == "expansion_blocked"]
    return on_grid and _field_at(field.values, res, x, y) >= clear_at


def expansion_blocked_reference(checker: CollisionChecker, samples: np.ndarray, x: float,
                                y: float, c: float, s: float, drives: List[int]):
    """The survivor batch that `CollisionChecker.expansion_blocked` replaced:
    the primitives among `drives` (indices into `samples`, (4, P, K)) with a
    blocked sub-sample, empty when `clear_within_reference` holds.  Only the
    survivors' sub-samples are posed, and `batch_blocked` tests them, off-grid
    test included."""
    blocked = ()
    if drives and not clear_within_reference(checker, x, y):
        # the survivors' sub-sample poses, bit for bit x + dx*c - dy*s,
        # y + dx*s + dy*c, c*cos - s*sin and s*cos + c*sin (float
        # addition commutes and a - b is a + (-b))
        dx, dy, cos_d, sin_d = samples[:, drives]
        turn, normal = np.array([[[c]], [[s]]]), np.array([[[-s]], [[c]]])
        xy = dx * turn
        xy += np.array([[[x]], [[y]]])
        xy += dy * normal
        heading = cos_d * turn
        heading += sin_d * normal
        hit = checker.batch_blocked(xy, heading).any(axis=1)
        blocked = {p for p, b in zip(drives, hit.tolist()) if b}
    return blocked


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


def proximity_stats_reference(driven: PlannedPath, field: Raster, vehicle
                              ) -> Tuple[float, float]:
    """The per-sample loop that the array form of `proximity_stats`
    replaced: each pose's four footprint corners, each looked up alone."""
    lon0, lon1 = -vehicle.rear_overhang, vehicle.length - vehicle.rear_overhang
    half_w = vehicle.width / 2.0

    def worst_corner(x, y, yaw) -> float:
        pose = Pose2D(float(x), float(y), float(yaw))
        c, s = math.cos(pose.yaw), math.sin(pose.yaw)
        return max(_field_at(field.values, field.resolution, pose.x + lon * c - lat * s,
                             pose.y + lon * s + lat * c, field.outside)
                   for lon in (lon0, lon1) for lat in (-half_w, half_w))

    per_sample = []
    for seg in driven.segments:
        if isinstance(seg, RotationSegment):
            per_sample += [worst_corner(seg.x, seg.y, yaw) for yaw in (seg.from_yaw, seg.to_yaw)]
        else:
            per_sample += [worst_corner(*pose) for pose in zip(seg.xs, seg.ys, seg.yaws)]
    if not per_sample:
        return 0.0, 0.0
    return float(max(per_sample)), float(sum(per_sample) / len(per_sample))


# ---------------------------------------------------------------------------
# Path sampling and analytic expansion, one sample at a time
# ---------------------------------------------------------------------------

def path_end_pose(rows, turn_radius: float, start: Pose2D) -> Pose2D:
    """End pose of the (turn, direction, length) `rows` driven from `start`,
    one exact arc per segment."""
    x, y, yaw = start.x, start.y, start.yaw
    for turn, direction, length in rows:
        x, y, yaw = move_along_arc(x, y, yaw, turn / turn_radius, length * direction)
    return Pose2D(x, y, yaw)


def sample_path_scalar(rows, turn_radius: float, start: Pose2D, step: float
                       ) -> List[Tuple[float, float, float, float, float, int]]:
    """Samples after each step as (x, y, raw yaw, normalized yaw, kappa, direction).

    The scalar exact-arc recurrence: every step advances the previous
    sample along its arc, and the yaw is normalized only for the output.
    """
    x, y, yaw = start.x, start.y, start.yaw
    out = []
    for kappa, direction, length in rows:
        if length <= 0.0:
            continue
        if kappa != 0.0:
            kappa /= turn_radius
        n = max(1, math.ceil(length / step))
        ds = length / n * direction
        for _ in range(n):
            if kappa == 0.0:
                x, y = x + ds * math.cos(yaw), y + ds * math.sin(yaw)
            else:
                yaw2 = yaw + ds * kappa
                x = x + (math.sin(yaw2) - math.sin(yaw)) / kappa
                y = y - (math.cos(yaw2) - math.cos(yaw)) / kappa
                yaw = yaw2
            out.append((x, y, yaw, (yaw + math.pi) % TWO_PI - math.pi, kappa, direction))
    return out


def suffix_cost_scalar(steps, config, direction: int, steer: float) -> float:
    """Movement cost of (steer, direction, amount) steps, written out term by term.

    A drive pays its length (reverse weighted), a gear switch, the steer and
    the steer change; a rotation (direction 0) pays the model switch plus
    its angle and resets the gear and steer.
    """
    total = 0.0
    for step_steer, step_direction, amount in steps:
        if step_direction == 0:
            total += config.w_rotation_fixed + config.w_rotation_rate * abs(amount)
        else:
            cost = amount * (1.0 + (config.w_reverse if step_direction < 0 else 0.0))
            if direction != 0 and step_direction != direction:
                cost += config.w_switch
            cost += config.w_steer * abs(step_steer)
            cost += config.w_steer_change * abs(step_steer - steer)
            total += cost
        direction, steer = step_direction, step_steer
    return total


def extension_reference(pose: Pose2D, goal: Pose2D, ext, checker, step: float
                        ) -> Optional[PlannedPath]:
    """Drive-rotate-drive suffix from a scalar loop over each leg's samples."""
    point, pre, delta, post = ext
    if checker.rotation_blocked(point[0], point[1]):
        return None
    legs = []
    for x0, y0, yaw, dist in ((pose.x, pose.y, pose.yaw, pre),
                              (point[0], point[1], goal.yaw, post)):
        n = max(1, math.ceil(abs(dist) / step))
        c, s = math.cos(yaw), math.sin(yaw)
        xs, ys = [], []
        for i in range(n + 1):
            t = dist * i / n
            xs.append(x0 + t * c)
            ys.append(y0 + t * s)
        if checker.batch_blocked(np.array([xs, ys]),
                                 np.array([np.full(n + 1, c), np.full(n + 1, s)])).any():
            return None
        legs.append((xs, ys, yaw, dist))
    builder = PathBuilder(pose)
    for leg, (xs, ys, yaw, dist) in enumerate(legs):
        if leg == 1:
            builder.add_rotation(delta)
        if abs(dist) > 1e-12:
            for x, y in zip(xs[1:], ys[1:]):
                builder.add_drive_sample(x, y, yaw, 0.0, 1 if dist >= 0.0 else -1)
    return builder.finish()


def analytic_expansions_reference(pose: Pose2D, goal: Pose2D, checker, config, vehicle,
                                  mode: str, parent_direction: int = 0,
                                  parent_steer: float = 0.0) -> Optional[PlannedPath]:
    """Analytic expansion that samples and checks every candidate as a whole.

    Each candidate is sampled in full by the scalar recurrence, the start
    pose included, and tested in one disk check; the first free candidate
    becomes the suffix.  The drive-rotate-drive connection replaces it when
    it is free and cheaper, both costs summed by `suffix_cost_scalar`.
    """
    best_path: Optional[PlannedPath] = None
    best_cost = math.inf
    max_steer = vehicle.max_steer
    kind_steer = {"left": max_steer, "right": -max_steer, "straight": 0.0}
    for cand in rs_all_paths_reference(pose, goal, vehicle.min_turn_radius):
        if cand.total_length >= 1e6:
            break
        samples = sample_path_scalar(reference_rows(cand), vehicle.min_turn_radius, pose,
                                     config.collision_step)
        xs = np.array([pose.x] + [s[0] for s in samples])
        ys = np.array([pose.y] + [s[1] for s in samples])
        yaws = np.array([pose.yaw] + [s[3] for s in samples])
        if not checker.batch_blocked(np.array([xs, ys]), np.array([np.cos(yaws), np.sin(yaws)])).any():
            best_cost = suffix_cost_scalar(
                [(kind_steer[seg.kind], seg.direction, seg.length) for seg in cand.segments],
                config, parent_direction, parent_steer)
            builder = PathBuilder(pose)
            for x, y, _, yaw, kappa, direction in samples:
                builder.add_drive_sample(x, y, yaw, kappa, direction)
            best_path = builder.finish()
            break
    if mode == EXTENDED:
        ext = geometric_extension(pose, goal, config.extension_segment_length)
        if ext is not None:
            _, pre, delta, post = ext
            steps = []
            if abs(pre) > 1e-12:
                steps.append((0.0, 1 if pre >= 0.0 else -1, abs(pre)))
            steps.append((0.0, 0, delta))
            if abs(post) > 1e-12:
                steps.append((0.0, 1 if post >= 0.0 else -1, abs(post)))
            if suffix_cost_scalar(steps, config, parent_direction, parent_steer) < best_cost:
                path = extension_reference(pose, goal, ext, checker, config.collision_step)
                if path is not None:
                    best_path = path
    return best_path


# ---------------------------------------------------------------------------
# Path walking: the segment-index cursor that followed a planned path in the
# simulator, and the gear lookup used for replan stitching, each with its own
# arc-length accumulator.
# ---------------------------------------------------------------------------

def rotation_delta(from_yaw: float, to_yaw: float) -> float:
    d = to_yaw - from_yaw
    while d > math.pi:
        d -= 2.0 * math.pi
    while d < -math.pi:
        d += 2.0 * math.pi
    return d


class PathCursor:
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
            delta = rotation_delta(seg.from_yaw, seg.to_yaw)
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


def cursor_steps(path: PlannedPath, drive_step: float) -> list:
    """Every step the cursor takes until exhausted, as the simulator read it:
    (kind, pose, value, direction, moved, progress_s, rotations_done)."""
    cursor = PathCursor(path)
    steps = []
    while not cursor.exhausted:
        steps.append(cursor.advance(drive_step) + (cursor.progress_s(), cursor.rotations_done()))
    return steps


def cursor_follow(path: PlannedPath, drive_step: float, start: Pose2D):
    """The simulator's drive loop over the cursor's steps, dispatching on
    their kind: the vehicle's (pose, progress_s, rotations_done, odometer)
    after every step, and the driven path recorded from `start`."""
    builder = PathBuilder(start)
    odometer = 0.0
    places = []
    for kind, pose, value, direction, moved, progress_s, rotations_done in cursor_steps(
            path, drive_step):
        if kind == "rotate":
            builder.add_rotation(value)   # value = signed yaw delta
        else:
            odometer += moved
            builder.add_drive_sample(pose.x, pose.y, pose.yaw, value, direction)
        places.append((pose, progress_s, rotations_done, odometer))
    return places, builder.finish()


def gear_at(path: PlannedPath, s: float) -> Tuple[int, float]:
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


# ---------------------------------------------------------------------------
# Search: the Hybrid A* loop that built every child's poses with numpy over
# the whole primitive table, collision-checked them all, and then costed and
# keyed each child in Python.
# ---------------------------------------------------------------------------

class _RefNode:
    __slots__ = ("x", "y", "yaw", "g", "h", "hd", "direction", "steer",
                 "parent", "amount", "key")

    def __init__(self, x, y, yaw, g, h, hd, direction, steer, parent, amount, key):
        self.x = x
        self.y = y
        self.yaw = yaw
        self.g = g
        self.h = h
        self.hd = hd
        self.direction = direction
        self.steer = steer
        self.parent = parent
        self.amount = amount
        self.key = key


class _RefPrimitiveTable:
    def __init__(self, config, vehicle) -> None:
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
        arr = np.array(rel)
        self.dx = arr[:, :, 0]
        self.dy = arr[:, :, 1]
        self.dyaw = arr[:, :, 2]
        self.cos_dyaw = np.cos(self.dyaw)
        self.sin_dyaw = np.sin(self.dyaw)
        self.n_sub = n_sub


def _ref_make_key(x, y, yaw, res, yaw_res, n_bins):
    ix = int(math.floor(x / res))
    iy = int(math.floor(y / res))
    ib = int(math.floor((yaw + math.pi) / yaw_res)) % n_bins
    return ix, iy, ib


def _ref_reconstruct(node, table) -> PlannedPath:
    chain = []
    cur = node
    while cur is not None:
        chain.append(cur)
        cur = cur.parent
    chain.reverse()
    first = chain[0]
    builder = PathBuilder(Pose2D(first.x, first.y, first.yaw))
    for nd in chain[1:]:
        if nd.direction == 0:
            builder.add_rotation(nd.amount)
            continue
        kappa = math.tan(nd.steer) / table.wheelbase
        x, y, yaw = nd.parent.x, nd.parent.y, nd.parent.yaw
        step = nd.amount / table.n_sub * nd.direction
        for _ in range(table.n_sub):
            x, y, yaw = move_along_arc(x, y, yaw, kappa, step)
            builder.add_drive_sample(x, y, normalize_angle(yaw), kappa, nd.direction)
    return builder.finish()


def plan_reference(belief, start, goal, vehicle, config=PlannerConfig(), mode=STANDARD,
                   horizon=None, start_direction=0, start_steer=0.0):
    """`planner.plan` with its earlier child loop: every child is sub-sampled
    and disk-checked, then normalised, keyed and costed one at a time, and
    one `_RefNode` object per node.  A failure carries its stats, and an
    analytic attempt goes through `planner.analytic_expansions`, so inside
    `reference_stack()` it is `analytic_expansions_reference`."""
    t_begin = time.perf_counter()
    stats = SearchStats()
    disks = vehicle.disks
    checker = CollisionChecker(belief, disks)

    def failed(exc):
        stats.wall_time_s = time.perf_counter() - t_begin
        stats.end = str(exc)
        exc.stats = stats
        return exc

    if checker.pose_blocked(start.x, start.y, start.yaw):
        raise failed(PlannerFailure("start in collision"))
    if horizon is None and checker.pose_blocked(goal.x, goal.y, goal.yaw):
        raise failed(PlannerFailure("goal in collision"))

    dmap = build_distance_map(belief, goal, config)

    hd_start = dmap.route_distance(start.x, start.y)
    if not math.isfinite(hd_start):
        raise failed(NoPathError("no path"))

    turn_radius = vehicle.min_turn_radius
    table = _RefPrimitiveTable(config, vehicle)
    rotation_steps = [(0.0, 0, delta) for delta in config.rotation_angles()] \
        if mode == EXTENDED else []
    n_bins = int(math.ceil(2.0 * math.pi / config.yaw_resolution))

    def key_of(x, y, yaw):
        return _ref_make_key(x, y, yaw, config.xy_resolution,
                             config.yaw_resolution, n_bins)

    def heuristic(x, y, yaw):
        hd = dmap.at(x, y)
        euclid = math.hypot(goal.x - x, goal.y - y)
        h = hd if math.isfinite(hd) else euclid
        if euclid <= config.rs_heuristic_radius:
            rs = rs_path_length_reference(Pose2D(x, y, yaw), goal, turn_radius)
            h = max(h, rs)
        else:
            h = max(h, euclid)
        return h, hd

    goal_key = key_of(goal.x, goal.y, goal.yaw)
    h0, hd0 = heuristic(start.x, start.y, start.yaw)
    root = _RefNode(start.x, start.y, start.yaw, 0.0, h0, hd0,
                    start_direction, start_steer, None, 0.0, key_of(start.x, start.y, start.yaw))
    stats.nodes_created = 1

    best_g = {root.key: 0.0}
    counter = 0
    open_heap = [(root.g + root.h, root.h, counter, root)]
    analytic_tried = set()

    def finish(path, end):
        stats.wall_time_s = time.perf_counter() - t_begin
        stats.end = end
        return path, stats

    while open_heap:
        _, _, _, node = heapq.heappop(open_heap)
        if node.g > best_g.get(node.key, math.inf) + 1e-12:
            continue
        if stats.nodes_expanded >= config.node_budget:
            raise failed(BudgetExceededError())
        stats.nodes_expanded += 1

        if node.key == goal_key:
            return finish(_ref_reconstruct(node, table), "goal cell")
        if horizon is not None and math.isfinite(node.hd) and hd_start - node.hd > horizon:
            return finish(_ref_reconstruct(node, table), "early stop")
        if (horizon is None and node.h < config.analytic_radius
                and node.key not in analytic_tried):
            analytic_tried.add(node.key)
            suffix = planner_module.analytic_expansions(
                Pose2D(node.x, node.y, node.yaw), goal, checker, config, vehicle, mode,
                parent_direction=node.direction, parent_steer=node.steer)
            if suffix is not None:
                end = "drive-rotate-drive" if suffix.n_rotations else "Reeds-Shepp"
                return finish(_ref_reconstruct(node, table).concat(suffix), end)

        c, s = math.cos(node.yaw), math.sin(node.yaw)
        world_x = node.x + table.dx * c - table.dy * s
        world_y = node.y + table.dx * s + table.dy * c
        cos_w = c * table.cos_dyaw - s * table.sin_dyaw
        sin_w = s * table.cos_dyaw + c * table.sin_dyaw
        blocked = checker.batch_blocked(
            np.array([world_x.reshape(-1), world_y.reshape(-1)]),
            np.array([cos_w.reshape(-1), sin_w.reshape(-1)])
        ).reshape(world_x.shape).any(axis=1)
        children = [(float(world_x[p, -1]), float(world_y[p, -1]),
                     node.yaw + float(table.dyaw[p, -1]), step)
                    for p, step in enumerate(table.steps) if not blocked[p]]
        if (rotation_steps and stats.nodes_expanded % config.f_ext == 0
                and not checker.rotation_blocked(node.x, node.y)):
            children += [(node.x, node.y, node.yaw + step[2], step) for step in rotation_steps]

        for nx, ny, raw_yaw, (steer, direction, amount) in children:
            nyaw = normalize_angle(raw_yaw)
            nkey = key_of(nx, ny, nyaw)
            g2 = node.g + cost_of(steer, direction, amount, config, node.direction, node.steer)
            if g2 >= best_g.get(nkey, math.inf) - 1e-12:
                continue
            h2, hd2 = heuristic(nx, ny, nyaw)
            child = _RefNode(nx, ny, nyaw, g2, h2, hd2, direction, steer, node, amount, nkey)
            best_g[nkey] = g2
            stats.nodes_created += 1
            counter += 1
            heapq.heappush(open_heap, (g2 + h2, h2, counter, child))

    raise failed(NoPathError())
