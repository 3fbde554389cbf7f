"""Self-contained SVG rendering of a run: map, belief, driven path."""
from __future__ import annotations

from typing import List, Optional

import numpy as np

from .grid import OCCUPIED, UNKNOWN, OccupancyGrid
from .planner import DriveSegment, PlannedPath


def _row_spans(mask_row: np.ndarray):
    """Yield (start, end) index pairs of consecutive True runs."""
    idx = np.nonzero(mask_row)[0]
    if idx.size == 0:
        return
    breaks = np.nonzero(np.diff(idx) > 1)[0]
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [idx.size - 1]))
    for a, b in zip(starts, ends):
        yield int(idx[a]), int(idx[b]) + 1


def _mask_rects(mask: np.ndarray, res: float, height_m: float, fill: str,
                opacity: float = 1.0) -> List[str]:
    parts = []
    for iy in range(mask.shape[0]):
        y_top = height_m - (iy + 1) * res
        for x0, x1 in _row_spans(mask[iy]):
            parts.append(
                f'<rect x="{x0 * res:.4f}" y="{y_top:.4f}" width="{(x1 - x0) * res:.4f}" '
                f'height="{res:.4f}" fill="{fill}" fill-opacity="{opacity}"/>'
            )
    return parts


def render_run(truth: OccupancyGrid, belief: Optional[OccupancyGrid],
               driven: PlannedPath) -> str:
    """SVG document showing the truth map, the belief overlay and the path."""
    width_m = truth.width_cells * truth.resolution
    height_m = truth.height_cells * truth.resolution
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width_m:.3f} {height_m:.3f}" '
        f'width="{width_m * 8:.0f}" height="{height_m * 8:.0f}">',
        f'<rect x="0" y="0" width="{width_m:.3f}" height="{height_m:.3f}" fill="#fcfcfa"/>',
    ]
    parts += _mask_rects(truth.cells == OCCUPIED, truth.resolution, height_m, "#3a3a3a")
    if belief is not None:
        parts += _mask_rects(belief.cells == UNKNOWN, belief.resolution, height_m,
                             "#7a8dbf", opacity=0.25)
    for seg in driven.segments:
        if isinstance(seg, DriveSegment):
            pts = " ".join(f"{x:.3f},{height_m - y:.3f}"
                           for x, y in zip(seg.xs, seg.ys))
            color = "#1661c4" if seg.direction > 0 else "#c4164b"
            parts.append(f'<polyline points="{pts}" fill="none" '
                         f'stroke="{color}" stroke-width="0.18"/>')
        else:
            parts.append(f'<circle cx="{seg.x:.3f}" cy="{height_m - seg.y:.3f}" '
                         f'r="0.6" fill="none" stroke="#e08700" stroke-width="0.2"/>')
    for pose, color in ((driven.start_pose(), "#0a9c37"), (driven.end_pose(), "#9c0a74")):
        if pose is None:
            continue
        parts.append(f'<circle cx="{pose.x:.3f}" cy="{height_m - pose.y:.3f}" '
                     f'r="0.45" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
