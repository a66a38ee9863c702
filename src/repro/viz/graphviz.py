"""Place-graph rendering: the individual user's "graph of visited places".

Lays out a place graph on a circle, one node per place in sorted label
order (the order the categorical colours are assigned in), so the same
graph always renders identically with no seed and no iterations.  Nodes
are sized by visit count and edges weighted by transition frequency.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from .palette import (
    GRID,
    OTHER,
    SURFACE,
    TEXT_PRIMARY,
    TEXT_SECONDARY,
    categorical_for,
)
from .svg import SvgCanvas

if TYPE_CHECKING:
    from ..patterns import PlaceGraph

__all__ = ["render_place_graph"]


def _node_radius(value: float, vmax: float, r_min: float = 10.0, r_max: float = 26.0) -> float:
    if vmax <= 0:
        return r_min
    return r_min + (r_max - r_min) * math.sqrt(min(1.0, value / vmax))


def render_place_graph(
    graph: PlaceGraph,
    width: float = 720.0,
    height: float = 560.0,
    title: Optional[str] = None,
) -> str:
    """A user's place graph as SVG.

    Node size encodes visits; edge width encodes transition weight; node
    color is the place label's fixed categorical slot.
    """
    canvas = SvgCanvas(width, height, background=SURFACE)
    heading = title or f"Place graph — user {graph.user_id}"
    canvas.text(12, 22, heading, fill=TEXT_PRIMARY, size=14, weight="600")
    if not graph.nodes:
        canvas.text(width / 2, height / 2, "no places visited",
                    fill=TEXT_SECONDARY, size=13, anchor="middle")
        return canvas.to_string()

    # Places on an ellipse filling the plot area, clockwise from the top.
    pad = 60.0
    cx, rx = width / 2, (width - 2 * pad) / 2
    ry = (height - 60.0 - pad) / 2
    cy = 40.0 + pad / 2 + ry
    order = sorted(label for label, _ in graph.nodes)
    step = 2 * math.pi / len(order)
    positions: Dict[str, Tuple[float, float]] = {
        node: (cx + rx * math.cos(i * step - math.pi / 2),
               cy + ry * math.sin(i * step - math.pi / 2))
        for i, node in enumerate(order)
    }
    vmax = float(max(visits for _, visits in graph.nodes))
    w_max = max((weight for _, _, weight, _ in graph.edges), default=1.0)
    colors = categorical_for(order)

    # Edges first (under the nodes), arrowheads as short chevrons.
    for u, v, weight, _ in graph.edges:
        x1, y1 = positions[u]
        x2, y2 = positions[v]
        stroke_w = 1.0 + 3.0 * (weight / w_max)
        canvas.line(x1, y1, x2, y2, stroke=GRID, stroke_width=stroke_w, opacity=0.9)
        # Arrow chevron at 70% along the edge.
        ax = x1 + (x2 - x1) * 0.7
        ay = y1 + (y2 - y1) * 0.7
        angle = math.atan2(y2 - y1, x2 - x1)
        size = 6.0
        for da in (2.6, -2.6):
            canvas.line(ax, ay, ax - size * math.cos(angle + da),
                        ay - size * math.sin(angle + da),
                        stroke=TEXT_SECONDARY, stroke_width=1.2)

    for node, visits in graph.nodes:
        x, y = positions[node]
        r = _node_radius(float(visits), vmax)
        canvas.circle(x, y, r, fill=colors.get(node, OTHER), opacity=0.9,
                      stroke=SURFACE, stroke_width=2,
                      tooltip=f"{node}: {visits} visits")
        canvas.text(x, y - r - 6, node, fill=TEXT_PRIMARY, size=11, anchor="middle")
    return canvas.to_string()
