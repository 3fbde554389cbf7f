"""Shortest bounded-curvature paths for a forward/reverse-capable vehicle.

The one module that knows the path format: a path is its segments'
(turn, direction, length) rows, turn the curvature in units of 1 / turn
radius (LEFT, RIGHT or STRAIGHT), sampled by `sample_paths`, the one
sampler.  A word table built at import holds the 48 words (9 curve/straight
families under the timeflip / reflect / backwards symmetries): each word's
solver, input flip, fixed length terms and segment recipe.  One loop solves
every word with scalar math-module calls; a length query keeps the minimum
and builds no row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Sequence, Tuple

import numpy as np

from .geometry import Pose2D, normalize_angle, normalize_angles

LEFT, RIGHT, STRAIGHT = 1.0, -1.0, 0.0    # a row's turn: curvature in units of 1 / turn radius
Row = Tuple[float, int, float]            # (turn, direction +1 / -1, length in meters >= 0)

HALF_PI = 0.5 * math.pi
_ZERO = 1e-10          # slack on validity inequalities
_MIN_SEG = 1e-12       # segments shorter than this are dropped


def _tau_omega(u: float, v: float, xi: float, eta: float, phi: float) -> Tuple[float, float]:
    delta = normalize_angle(u - v)
    a = math.sin(u) - math.sin(delta)
    b = math.cos(u) - math.cos(delta) - 1.0
    t1 = math.atan2(eta * a - xi * b, xi * a + eta * b)
    t2 = 2.0 * (math.cos(delta) - math.cos(v) - math.cos(u)) + 3.0
    tau = normalize_angle(t1 + math.pi) if t2 < 0.0 else normalize_angle(t1)
    omega = normalize_angle(tau - u + v - phi)
    return tau, omega


@dataclass
class PathSamples:
    """A path sampled from its start pose (a batch adds a path axis before the
    sample axis): sample 0 is the start (curvature 0, forward), every other
    sample the pose after one step, with the curvature and direction of that step."""

    xy: np.ndarray           # (2, n) or (2, paths, n) positions, x then y
    yaws: np.ndarray         # (n,) or (paths, n) headings in [-pi, pi)
    kappas: np.ndarray       # (n,) or (paths, n)
    directions: np.ndarray   # (n,) or (paths, n) +1 forward, -1 reverse

    def __len__(self) -> int:
        return self.yaws.shape[-1]


def sample_path(rows: Sequence[Row], turn_radius: float, start: Pose2D,
                step: float) -> PathSamples:
    """Every sample of one path driven from `start`: `sample_paths` of `[rows]`."""
    batch = sample_paths([rows], turn_radius, start, step)
    return PathSamples(batch.xy[:, 0], batch.yaws[0], batch.kappas[0], batch.directions[0])


def sample_paths(paths: Sequence[Sequence[Row]], turn_radius: float,
                 start: Pose2D, step: float, limit: float = math.inf) -> PathSamples:
    """The first `limit` samples of each path driven from `start`, `step` apart at most.

    Each non-empty segment is split into n = max(1, ceil(length / step))
    equal steps, so segment boundaries are samples and the last sample is the
    path's end pose; a path without segments gives the start alone, and a row
    shorter than the longest repeats its end pose.  One prefix sum per
    coordinate runs along each row, adding the same terms in the same order as
    chaining `move_along_arc` step by step, so every value is bit-identical to
    that scalar recurrence and a limited sample is a prefix of the full one.
    """
    if not step > 0.0:
        raise ValueError("step must be positive")
    # five values per path and segment, the start first: step count, curvature,
    # divisor of the arc increments (1.0 on a straight, whose increments are set
    # below), heading change per step (a straight's 0.0 leaves the heading as it
    # is), direction; then a padding run that neither turns nor moves, its count set below
    table, straights, pads = [], [], []
    for p, rows in enumerate(paths):
        table += (1, 0.0, 1.0, start.yaw, 1)
        used = 1
        for turn, d, length in rows:
            if length > 0.0 and used < limit:
                n = max(1, math.ceil(length / step))
                k = turn / turn_radius
                ds = length / n * d
                n_kept = min(n, limit - used)
                if k == 0.0:
                    straights.append((p, used, n_kept, ds))
                table += (n_kept, k, k or 1.0, ds * k, d)
                used += n_kept
        pads.append((len(table), used))
        table += (0, 0.0, 1.0, 0.0, 1)
    width = max(used for _, used in pads)
    for i, used in pads:
        table[i] = width - used
    columns = np.fromiter(table, float, len(table)).reshape(-1, 5).T
    kappas, divisors, raw, directions = (columns[1:].repeat(columns[0].astype(int), axis=1)
                                         .reshape(4, len(paths), -1))
    raw = raw.cumsum(axis=1)
    sin, cos = np.sin(raw), np.cos(raw)
    xy = np.empty((2, *raw.shape))
    xy[0, :, 0], xy[1, :, 0] = start.x, start.y
    np.divide(sin[:, 1:] - sin[:, :-1], divisors[:, 1:], out=xy[0, :, 1:])
    np.divide(-(cos[:, 1:] - cos[:, :-1]), divisors[:, 1:], out=xy[1, :, 1:])
    for p, i, n, ds in straights:             # the scalar form's math.cos / math.sin
        yaw = float(raw[p, i - 1])
        xy[0, p, i:i + n] = ds * math.cos(yaw)
        xy[1, p, i:i + n] = ds * math.sin(yaw)
    np.cumsum(xy, axis=2, out=xy)
    yaws = normalize_angles(raw)
    yaws[:, 0] = start.yaw
    return PathSamples(xy, yaws, kappas, directions.astype(int))


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
    """A word family: its solver and its segments as (turn, role), role
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


def _word(family: _Family, backwards: bool, timeflip: bool, reflect: bool) -> Tuple:
    """A word as (solver, flip, extra_u, extra_const, recipe).  `flip` (4 * backwards +
    2 * timeflip + reflect) picks the solver's input in `_solve`; a recipe entry (turn,
    scale, param), reflected and timeflipped, has value scale * (t, u, v, 1.0)[param]."""
    roles = {"t": (1.0, 0), "u": (1.0, 1), "v": (1.0, 2), "-u": (-1.0, 1)}
    recipe = []
    for turn, role in (reversed(family.pattern) if backwards else family.pattern):
        scale, param = (role, 3) if isinstance(role, float) else roles[role]
        if reflect and turn != STRAIGHT:      # a straight stays +0.0, never -0.0
            turn = -turn
        recipe.append((turn, -scale if timeflip else scale, param))
    return (family.solve, 4 * backwards + 2 * timeflip + reflect, family.extra_u,
            family.extra_const, tuple(recipe))


# every (family, backwards, timeflip, reflect) word, in the order that ties keep
_WORDS = tuple(_word(family, backwards, timeflip, reflect) for family in _FAMILIES
               for backwards in ((False, True) if family.backwards else (False,))
               for timeflip in (False, True) for reflect in (False, True))
assert len(_WORDS) == 48


def _solve(x: float, y: float, phi: float) -> List[Tuple[float, int, float, float, float]]:
    """(total length, word index, t, u, v) of every applicable word, in word order."""
    sin_phi, cos_phi = math.sin(phi), math.cos(phi)
    xb = x * cos_phi + y * sin_phi
    yb = x * sin_phi - y * cos_phi
    # the solver input by flip: a timeflip negates x and phi, a reflection y and phi
    inputs = ((x, y, phi), (x, -y, -phi), (-x, y, -phi), (-x, -y, phi),
              (xb, yb, phi), (xb, -yb, -phi), (-xb, yb, -phi), (-xb, -yb, phi))
    found = []
    for i, (solve, flip, extra_u, extra_const, _) in enumerate(_WORDS):
        sol = solve(*inputs[flip])
        if sol is not None:
            t, u, v = sol
            found.append((abs(t) + abs(u) + abs(v) + extra_u * abs(u) + extra_const, i, t, u, v))
    return found


def _rows(i: int, t: float, u: float, v: float, turn_radius: float) -> List[Row]:
    """Word i's rows, empty segments dropped."""
    params = (t, u, v, 1.0)
    rows = []
    for turn, scale, param in _WORDS[i][4]:
        value = scale * params[param]
        if abs(value) > _MIN_SEG:
            rows.append((turn, 1 if value >= 0.0 else -1, abs(value) * turn_radius))
    return rows


def _relative_target(start: Pose2D, goal: Pose2D, turn_radius: float) -> Tuple[float, float, float]:
    if not turn_radius > 0.0:
        raise ValueError("turn_radius must be positive")
    dx = goal.x - start.x
    dy = goal.y - start.y
    c, s = math.cos(start.yaw), math.sin(start.yaw)
    return ((c * dx + s * dy) / turn_radius,
            (-s * dx + c * dy) / turn_radius,
            normalize_angle(goal.yaw - start.yaw))


def rs_all_paths(start: Pose2D, goal: Pose2D, turn_radius: float) -> List[List[Row]]:
    """Every applicable word's rows, shortest first (a stable sort of word order)."""
    return [_rows(i, t, u, v, turn_radius)
            for _, i, t, u, v in sorted(_solve(*_relative_target(start, goal, turn_radius)),
                                        key=lambda c: c[0])]


def rs_path_length(start: Pose2D, goal: Pose2D, turn_radius: float) -> float:
    """Length of the shortest path without building rows."""
    return min([math.inf] + [c[0] for c in _solve(*_relative_target(start, goal, turn_radius))]
               ) * turn_radius
