"""Shortest bounded-curvature paths for a forward/reverse-capable vehicle.

The one module that knows the path format: a path is a tuple of
left / right / straight segments, and `sample_paths` is its one sampler.
The solver enumerates the 48 canonical word families (curve/straight
patterns combined with the classic timeflip / reflect / backwards
symmetries) and keeps the minimum-length candidate.  Scalar math keeps a
single length query around 50 microseconds, cheap enough for per-node
heuristic lookups in the graph search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from .geometry import Pose2D, normalize_angle, normalize_angles

LEFT = "left"
RIGHT = "right"
STRAIGHT = "straight"
_TURN = {LEFT: 1.0, RIGHT: -1.0, STRAIGHT: 0.0}   # curvature in units of 1 / turn radius

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


class RSSegment(NamedTuple):
    kind: str        # left / right / straight
    direction: int   # +1 forward, -1 reverse
    length: float    # arc length in meters, >= 0


class RSPath(NamedTuple):
    """A bounded-curvature path as an ordered list of arc/straight segments."""

    segments: Tuple[RSSegment, ...]
    turn_radius: float
    total_length: float


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


def sample_path(path: RSPath, start: Pose2D, step: float) -> PathSamples:
    """Every sample of `path` driven from `start`: `sample_paths` of one path."""
    batch = sample_paths([path], start, step)
    return PathSamples(batch.xy[:, 0], batch.yaws[0], batch.kappas[0], batch.directions[0])


def sample_paths(paths: Sequence[RSPath], start: Pose2D, step: float,
                 limit: float = math.inf) -> PathSamples:
    """The first `limit` samples of each path driven from `start`, `step` apart at most.

    Each non-empty segment is split into n = max(1, ceil(length / step))
    equal steps, so segment boundaries are samples and the last sample is
    the path's end pose; a path without segments gives the start alone, and
    a row shorter than the longest repeats its end pose.  One prefix sum per
    coordinate runs along each row, adding the same terms in the same order
    as chaining `move_along_arc` step by step, so every value is bit-identical
    to that scalar recurrence and a limited sample is a prefix of the full one.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    # per path and segment, the start first: (step count, curvature, divisor of the
    # arc increments (1.0 on a straight, whose increments are set below), heading
    # change per step (a straight's 0.0 leaves the heading as it is), direction)
    per_path, straights = [], []
    for p, path in enumerate(paths):
        rows, used = [(1, 0.0, 1.0, start.yaw, 1)], 1
        for seg in path.segments:
            if seg.length > 0.0 and used < limit:
                n = max(1, math.ceil(seg.length / step))
                k = _TURN[seg.kind] / path.turn_radius
                ds = seg.length / n * seg.direction
                n_kept = min(n, limit - used)
                if k == 0.0:
                    straights.append((p, used, n_kept, ds))
                rows.append((n_kept, k, k or 1.0, ds * k, seg.direction))
                used += n_kept
        per_path.append((rows, used))
    width = max(used for _, used in per_path)    # the padding neither turns nor moves
    counts, kappa, divisor, turn, direction = zip(*(
        row for rows, used in per_path for row in rows + [(width - used, 0.0, 1.0, 0.0, 1)]))
    kappas, divisors, raw = (np.array((kappa, divisor, turn)).repeat(counts, axis=1)
                             .reshape(3, len(paths), -1))
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
    return PathSamples(xy, yaws, kappas, np.array(direction).repeat(counts).reshape(raw.shape))


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


def rs_all_paths(start: Pose2D, goal: Pose2D, turn_radius: float) -> List[RSPath]:
    """Every applicable word's path, shortest first (for collision fallback)."""
    x, y, phi = _relative_target(start, goal, turn_radius)
    cands = sorted(_enumerate_candidates(x, y, phi), key=lambda c: c[0])
    paths = []
    for _, word, (t, u, v) in cands:
        segments = _word_segments(word, t, u, v, turn_radius)
        paths.append(RSPath(segments=segments, turn_radius=turn_radius,
                            total_length=sum(seg.length for seg in segments)))
    return paths


def rs_path_length(start: Pose2D, goal: Pose2D, turn_radius: float) -> float:
    """Length of the shortest path without building segments."""
    x, y, phi = _relative_target(start, goal, turn_radius)
    best = math.inf
    for total, _, _ in _enumerate_candidates(x, y, phi):
        if total < best:
            best = total
    return best * turn_radius

