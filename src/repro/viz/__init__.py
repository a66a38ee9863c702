"""Visualization: SVG chart kit, city map, place graphs, HTML reports."""

from .animation_svg import render_animated_crowd
from .charts import Heatmap, Histogram, LineChart, nice_ticks
from .citymap import label_color_order, render_snapshot
from .graphviz import render_place_graph
from .palette import (
    CATEGORICAL,
    GRID,
    OTHER,
    SEQUENTIAL,
    SURFACE,
    TEXT_MUTED,
    TEXT_PRIMARY,
    TEXT_SECONDARY,
    categorical_for,
    sequential_color,
)
from .report import HtmlReport
from .svg import SvgCanvas
from .tracemap import render_trace

__all__ = [
    "CATEGORICAL",
    "GRID",
    "Heatmap",
    "Histogram",
    "HtmlReport",
    "LineChart",
    "OTHER",
    "SEQUENTIAL",
    "SURFACE",
    "SvgCanvas",
    "TEXT_MUTED",
    "TEXT_PRIMARY",
    "TEXT_SECONDARY",
    "categorical_for",
    "label_color_order",
    "nice_ticks",
    "render_animated_crowd",
    "render_place_graph",
    "render_snapshot",
    "render_trace",
    "sequential_color",
]
