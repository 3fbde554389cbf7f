"""Shortest bounded-curvature paths for a forward/reverse-capable vehicle.

The solver enumerates the 48 canonical word families (curve/straight
patterns combined with the classic timeflip / reflect / backwards
symmetries) and keeps the minimum-length candidate.  Scalar math keeps a
single length query around 50 microseconds, cheap enough for per-node
heuristic lookups in the graph search.
"""
from __future__ import annotations

import math
from typing import Iterable, List, Optional, Tuple

from .geometry import LEFT, RIGHT, STRAIGHT, Pose2D, RSPath, RSSegment, normalize_angle

HALF_PI = 0.5 * math.pi
TWO_PI = 2.0 * math.pi
_ZERO = 1e-10          # slack on validity inequalities
_MIN_SEG = 1e-12       # segments shorter than this are dropped


def _wrap(x: float) -> float:
    return (x + math.pi) % TWO_PI - math.pi


def _tau_omega(u: float, v: float, xi: float, eta: float, phi: float) -> Tuple[float, float]:
    delta = _wrap(u - v)
    a = math.sin(u) - math.sin(delta)
    b = math.cos(u) - math.cos(delta) - 1.0
    t1 = math.atan2(eta * a - xi * b, xi * a + eta * b)
    t2 = 2.0 * (math.cos(delta) - math.cos(v) - math.cos(u)) + 3.0
    tau = _wrap(t1 + math.pi) if t2 < 0.0 else _wrap(t1)
    omega = _wrap(tau - u + v - phi)
    return tau, omega


# Family solvers: normalized target (x, y, phi) in units of the turn
# radius; return (t, u, v) or None when the family does not apply.

def _lsl(x, y, phi):
    u, t = math.hypot(x - math.sin(phi), y - 1.0 + math.cos(phi)), math.atan2(y - 1.0 + math.cos(phi), x - math.sin(phi))
    if t < -_ZERO:
        return None
    v = _wrap(phi - t)
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
    t = _wrap(t1 + math.atan2(2.0, u))
    v = _wrap(t - phi)
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
    t = _wrap(theta + 0.5 * u + math.pi)
    v = _wrap(phi - t + u)
    if t < -_ZERO or u > _ZERO:
        return None
    return t, u, v


def _sls(x, y, phi):
    # straight / left arc of angle phi / straight, from the composition
    # x = t + sin(phi) + v cos(phi),  y = 1 - cos(phi) + v sin(phi)
    phi_w = _wrap(phi)
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
    t = _wrap(theta + math.atan2(r, -2.0))
    v = _wrap(phi - HALF_PI - t)
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
    v = _wrap(t + HALF_PI - phi)
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
    t = _wrap(math.atan2((4.0 - u) * xi - 2.0 * eta, -2.0 * xi + (u - 4.0) * eta))
    v = _wrap(t - phi)
    if t < -_ZERO or v < -_ZERO:
        return None
    return t, u, v


# Segment patterns: (kind, role) where role is 't'/'u'/'v'/'-u' for the
# free parameters, or a float for arcs fixed at +-pi/2.
_PATTERNS = {
    "LSL": ((LEFT, "t"), (STRAIGHT, "u"), (LEFT, "v")),
    "LSR": ((LEFT, "t"), (STRAIGHT, "u"), (RIGHT, "v")),
    "LRL": ((LEFT, "t"), (RIGHT, "u"), (LEFT, "v")),
    "SLS": ((STRAIGHT, "t"), (LEFT, "u"), (STRAIGHT, "v")),
    "LRLRn": ((LEFT, "t"), (RIGHT, "u"), (LEFT, "-u"), (RIGHT, "v")),
    "LRLRp": ((LEFT, "t"), (RIGHT, "u"), (LEFT, "u"), (RIGHT, "v")),
    "LRSL": ((LEFT, "t"), (RIGHT, -HALF_PI), (STRAIGHT, "u"), (LEFT, "v")),
    "LRSR": ((LEFT, "t"), (RIGHT, -HALF_PI), (STRAIGHT, "u"), (RIGHT, "v")),
    "LRSLR": ((LEFT, "t"), (RIGHT, -HALF_PI), (STRAIGHT, "u"), (LEFT, -HALF_PI), (RIGHT, "v")),
}

_SOLVERS = {
    "LSL": _lsl,
    "LSR": _lsr,
    "LRL": _lrl,
    "SLS": _sls,
    "LRLRn": _lrlrn,
    "LRLRp": _lrlrp,
    "LRSL": _lrsl,
    "LRSR": _lrsr,
    "LRSLR": _lrslr,
}

# Extra arc length contributed by tied / fixed segments, as a multiple of
# |u| and a constant, per base family.
_EXTRA_U = {"LRLRn": 1.0, "LRLRp": 1.0}
_EXTRA_CONST = {"LRSL": HALF_PI, "LRSR": HALF_PI, "LRSLR": math.pi}

# Bases whose reversed word order is not covered by reflection alone.
_WITH_BACKWARDS = ("LRL", "LRSL", "LRSR")


def _build_words() -> List[Tuple[str, bool, bool, bool]]:
    words = []
    for base in _PATTERNS:
        backwards_opts = (False, True) if base in _WITH_BACKWARDS else (False,)
        for backwards in backwards_opts:
            for timeflip in (False, True):
                for reflect in (False, True):
                    words.append((base, timeflip, reflect, backwards))
    return words


_WORDS = _build_words()
assert len(_WORDS) == 48


def _enumerate_candidates(x: float, y: float, phi: float) -> Iterable[Tuple[float, Tuple, Tuple[float, float, float]]]:
    """Yield (total_length, word, params) for every applicable word."""
    sin_phi = math.sin(phi)
    cos_phi = math.cos(phi)
    xb = x * cos_phi + y * sin_phi
    yb = x * sin_phi - y * cos_phi
    for word in _WORDS:
        base, timeflip, reflect, backwards = word
        wx, wy = (xb, yb) if backwards else (x, y)
        wphi = phi
        if timeflip:
            wx, wphi = -wx, -wphi
        if reflect:
            wy, wphi = -wy, -wphi
        sol = _SOLVERS[base](wx, wy, wphi)
        if sol is None:
            continue
        t, u, v = sol
        total = (abs(t) + abs(u) + abs(v)
                 + _EXTRA_U.get(base, 0.0) * abs(u) + _EXTRA_CONST.get(base, 0.0))
        yield total, word, (t, u, v)


def _word_segments(word, t: float, u: float, v: float) -> List[RSSegment]:
    base, timeflip, reflect, backwards = word
    params = {"t": t, "u": u, "v": v, "-u": -u}
    segs = []
    for kind, role in _PATTERNS[base]:
        value = role if isinstance(role, float) else params[role]
        if timeflip:
            value = -value
        if reflect and kind != STRAIGHT:
            kind = LEFT if kind == RIGHT else RIGHT
        segs.append((kind, value))
    if backwards:
        segs.reverse()
    out = []
    for kind, value in segs:
        if abs(value) > _MIN_SEG:
            out.append(RSSegment(kind, 1 if value >= 0.0 else -1, abs(value)))
    return out


def _relative_target(start: Pose2D, goal: Pose2D, turn_radius: float) -> Tuple[float, float, float]:
    dx = goal.x - start.x
    dy = goal.y - start.y
    c, s = math.cos(start.yaw), math.sin(start.yaw)
    return ((c * dx + s * dy) / turn_radius,
            (-s * dx + c * dy) / turn_radius,
            normalize_angle(goal.yaw - start.yaw))


def rs_shortest_path(start: Pose2D, goal: Pose2D, turn_radius: float) -> RSPath:
    """Minimum-length path over all 48 canonical word families."""
    if turn_radius <= 0.0:
        raise ValueError("turn_radius must be positive")
    x, y, phi = _relative_target(start, goal, turn_radius)
    best: Optional[Tuple[float, Tuple, Tuple[float, float, float]]] = None
    for cand in _enumerate_candidates(x, y, phi):
        if best is None or cand[0] < best[0] - 1e-15:
            best = cand
    assert best is not None  # the identity candidate always applies
    _, word, (t, u, v) = best
    segments = tuple(
        RSSegment(seg.kind, seg.direction, seg.length * turn_radius)
        for seg in _word_segments(word, t, u, v)
    )
    total = sum(seg.length for seg in segments)
    return RSPath(segments=segments, turn_radius=turn_radius, total_length=total)


def rs_all_paths(start: Pose2D, goal: Pose2D, turn_radius: float) -> List[RSPath]:
    """Every applicable word's path, shortest first (for collision fallback)."""
    x, y, phi = _relative_target(start, goal, turn_radius)
    cands = sorted(_enumerate_candidates(x, y, phi), key=lambda c: c[0])
    paths = []
    for _, word, (t, u, v) in cands:
        segments = tuple(
            RSSegment(seg.kind, seg.direction, seg.length * turn_radius)
            for seg in _word_segments(word, t, u, v)
        )
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

