"""The city-scale crowd view (Figs. 3–4): microcells, venues, crowd dots.

Renders a :class:`~repro.crowd.snapshot.CrowdSnapshot` as an SVG map: the
microcell grid shaded by occupancy (sequential ramp), the crowd as dots at
their grounded venue positions colored by place label (fixed categorical
slots), and a legend of the labels present.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Sequence

from ..crowd import CrowdSnapshot
from ..geo import ScreenProjection
from .palette import (
    GRID,
    OTHER,
    SURFACE,
    TEXT_MUTED,
    TEXT_PRIMARY,
    TEXT_SECONDARY,
    categorical_for,
    sequential_color,
)
from .svg import SvgCanvas

__all__ = ["render_snapshot", "label_color_order"]


def label_color_order(snapshots: Sequence[CrowdSnapshot]) -> List[str]:
    """Stable label order across a whole timeline (overall frequency).

    Computing the order once over *all* snapshots keeps each label's color
    fixed as the time slider moves — color follows the entity, not its rank
    in the current window.
    """
    counts: Counter = Counter()
    for snap in snapshots:
        counts.update(p.label for p in snap.placements)
    return [label for label, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]


def render_snapshot(
    snapshot: CrowdSnapshot,
    width: float = 760.0,
    height: float = 640.0,
    label_order: Optional[Sequence[str]] = None,
    show_grid: bool = True,
    title: Optional[str] = None,
) -> str:
    """One crowd snapshot as an SVG city map."""
    grid = snapshot.grid
    projection = ScreenProjection(grid.bbox, width, height - 70.0, padding_px=8.0)
    canvas = SvgCanvas(width, height, background=SURFACE)
    heading = title or f"Crowd in the smart city, {snapshot.window.label}"
    canvas.text(12, 22, heading, fill=TEXT_PRIMARY, size=14, weight="600")
    canvas.text(12, 38, f"{snapshot.n_users} users placed", fill=TEXT_MUTED, size=11)

    canvas.group(transform="translate(0 46)")
    counts = snapshot.cell_counts()
    vmax = max(counts.values()) if counts else 1
    if show_grid:
        # Occupied cells shaded by occupancy; empty cells as faint outlines.
        for cell in grid:
            x0, y0 = projection.to_screen(cell.bbox.max_lat, cell.bbox.min_lon)
            x1, y1 = projection.to_screen(cell.bbox.min_lat, cell.bbox.max_lon)
            count = counts.get(cell.index, 0)
            if count:
                canvas.rect(x0, y0, x1 - x0, y1 - y0,
                            fill=sequential_color(count, 0, vmax), opacity=0.45,
                            tooltip=f"cell {cell.cell_id}: {count} users")
            else:
                canvas.rect(x0, y0, x1 - x0, y1 - y0, fill="none", stroke=GRID,
                            stroke_width=0.5)

    order = list(label_order) if label_order is not None else label_color_order([snapshot])
    colors = categorical_for(order)
    for p in snapshot.placements:
        x, y = projection.to_screen(p.lat, p.lon)
        canvas.circle(
            x, y, 5,
            fill=colors.get(p.label, OTHER),
            stroke=SURFACE, stroke_width=2,
            tooltip=(f"{p.user_id} at {p.label} "
                     f"(support {p.support:.0%}, {p.n_evidence} visits)"),
        )
    canvas.endgroup()

    # Legend: labels present in this snapshot, in the stable order.
    present = {p.label for p in snapshot.placements}
    x = 12.0
    y = height - 14.0
    for label in order:
        if label not in present:
            continue
        canvas.circle(x + 5, y - 4, 5, fill=colors[label])
        canvas.text(x + 14, y, label, fill=TEXT_SECONDARY, size=11)
        x += 14 + 7 * len(label) + 18
    return canvas.to_string()
