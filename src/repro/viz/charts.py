"""The SVG chart kit: line, histogram, heatmap.

Shared visual grammar: recessive grid, thin marks (2px lines, ≥8px dots,
rounded bar ends), ink-colored text (never series-colored), a legend only
when there are two or more series, and categorical colors assigned in fixed
slot order.  Every mark carries a browser-native ``<title>`` tooltip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .palette import (
    CATEGORICAL,
    GRID,
    OTHER,
    SURFACE,
    TEXT_MUTED,
    TEXT_PRIMARY,
    TEXT_SECONDARY,
    sequential_color,
)
from .svg import SvgCanvas

__all__ = ["LineChart", "Histogram", "Heatmap", "nice_ticks"]

_MARGIN_LEFT = 62.0
_MARGIN_RIGHT = 18.0
_MARGIN_TOP = 42.0
_MARGIN_BOTTOM = 52.0


def nice_ticks(vmin: float, vmax: float, target: int = 5) -> List[float]:
    """Round tick positions covering [vmin, vmax] on a 1-2-5 progression."""
    if target < 2:
        raise ValueError("need at least two ticks")
    if vmax < vmin:
        vmin, vmax = vmax, vmin
    span = vmax - vmin
    if span <= 0:
        # Degenerate range: pad around the single value.
        pad = abs(vmin) * 0.1 or 1.0
        vmin, vmax = vmin - pad, vmax + pad
        span = vmax - vmin
    raw_step = span / (target - 1)
    magnitude = 10 ** math.floor(math.log10(raw_step))
    for multiple in (1, 2, 5, 10):
        step = multiple * magnitude
        if step >= raw_step:
            break
    start = math.floor(vmin / step) * step
    ticks = []
    value = start
    while value <= vmax + step * 0.5:
        ticks.append(round(value, 10))
        value += step
    return ticks


@dataclass
class _Frame:
    """The plotting area of a chart, with value↔pixel scaling."""

    width: float
    height: float
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    @property
    def plot_w(self) -> float:
        return self.width - _MARGIN_LEFT - _MARGIN_RIGHT

    @property
    def plot_h(self) -> float:
        return self.height - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(self, x: float) -> float:
        span = self.x_max - self.x_min or 1e-12
        return _MARGIN_LEFT + (x - self.x_min) / span * self.plot_w

    def py(self, y: float) -> float:
        span = self.y_max - self.y_min or 1e-12
        return _MARGIN_TOP + (1.0 - (y - self.y_min) / span) * self.plot_h


def _fmt_val(v: float) -> str:
    if abs(v - round(v)) < 1e-9:
        return f"{int(round(v)):,}"
    return f"{v:g}"


class _ChartBase:
    """Scaffolding shared by the coordinate charts."""

    def __init__(self, title: str, x_label: str = "", y_label: str = "",
                 width: float = 640.0, height: float = 400.0) -> None:
        self.title = title
        self.x_label = x_label
        self.y_label = y_label
        self.width = width
        self.height = height

    def _scaffold(self, canvas: SvgCanvas, frame: _Frame,
                  x_ticks: Sequence[Tuple[float, str]],
                  y_ticks: Sequence[Tuple[float, str]]) -> None:
        # Title + axis labels in ink, never series color.
        canvas.text(_MARGIN_LEFT, 24, self.title, fill=TEXT_PRIMARY, size=14, weight="600")
        if self.x_label:
            canvas.text(frame.px((frame.x_min + frame.x_max) / 2), self.height - 10,
                        self.x_label, fill=TEXT_SECONDARY, size=12, anchor="middle")
        if self.y_label:
            canvas.text(16, _MARGIN_TOP + frame.plot_h / 2, self.y_label,
                        fill=TEXT_SECONDARY, size=12, anchor="middle", rotate=-90)
        # Recessive horizontal grid + y tick labels.
        for value, label in y_ticks:
            y = frame.py(value)
            canvas.line(_MARGIN_LEFT, y, self.width - _MARGIN_RIGHT, y, stroke=GRID)
            canvas.text(_MARGIN_LEFT - 8, y + 4, label, fill=TEXT_SECONDARY,
                        size=11, anchor="end")
        # Baseline + x tick labels.
        base_y = _MARGIN_TOP + frame.plot_h
        canvas.line(_MARGIN_LEFT, base_y, self.width - _MARGIN_RIGHT, base_y,
                    stroke=TEXT_MUTED)
        for value, label in x_ticks:
            x = frame.px(value)
            canvas.line(x, base_y, x, base_y + 4, stroke=TEXT_MUTED)
            canvas.text(x, base_y + 18, label, fill=TEXT_SECONDARY, size=11,
                        anchor="middle")

    def _legend(self, canvas: SvgCanvas, names_colors: Sequence[Tuple[str, str]]) -> None:
        """Top-right legend row (only called for ≥2 series)."""
        x = self.width - _MARGIN_RIGHT
        for name, color in reversed(list(names_colors)):
            width_estimate = 7 * len(name) + 22
            x -= width_estimate
            canvas.rect(x, 16, 10, 10, fill=color, rx=2)
            canvas.text(x + 14, 25, name, fill=TEXT_SECONDARY, size=11)


class LineChart(_ChartBase):
    """Multi-series line chart with ≥8px markers and 2px strokes."""

    def __init__(self, title: str, x_label: str = "", y_label: str = "",
                 width: float = 640.0, height: float = 400.0,
                 y_zero: bool = True) -> None:
        super().__init__(title, x_label, y_label, width, height)
        self.y_zero = y_zero
        self._series: List[Tuple[str, List[float], List[float]]] = []

    def add_series(self, name: str, xs: Sequence[float], ys: Sequence[float]) -> "LineChart":
        if len(xs) != len(ys):
            raise ValueError("xs and ys must have equal length")
        if not xs:
            raise ValueError("a series needs at least one point")
        self._series.append((name, list(xs), list(ys)))
        return self

    def render(self) -> str:
        if not self._series:
            raise ValueError("no series added")
        all_x = [x for _, xs, _ in self._series for x in xs]
        all_y = [y for _, _, ys in self._series for y in ys]
        y_floor = min(0.0, min(all_y)) if self.y_zero else min(all_y)
        y_ticks_v = nice_ticks(y_floor, max(all_y) or 1.0)
        frame = _Frame(self.width, self.height, min(all_x), max(all_x),
                       y_ticks_v[0], y_ticks_v[-1])
        canvas = SvgCanvas(self.width, self.height, background=SURFACE)
        x_tick_vals = sorted(set(all_x)) if len(set(all_x)) <= 8 else nice_ticks(min(all_x), max(all_x))
        self._scaffold(
            canvas, frame,
            [(v, f"{v:g}") for v in x_tick_vals],
            [(v, _fmt_val(v)) for v in y_ticks_v],
        )
        for i, (name, xs, ys) in enumerate(self._series):
            color = CATEGORICAL[i] if i < len(CATEGORICAL) else OTHER
            points = [(frame.px(x), frame.py(y)) for x, y in zip(xs, ys)]
            if len(points) > 1:
                canvas.polyline(points, stroke=color, stroke_width=2)
            for (x, y), (vx, vy) in zip(points, zip(xs, ys)):
                canvas.circle(x, y, 4, fill=color, stroke=SURFACE,
                              stroke_width=2, tooltip=f"{name}: ({vx:g}, {vy:g})")
        if len(self._series) >= 2:
            self._legend(canvas, [
                (name, CATEGORICAL[i] if i < len(CATEGORICAL) else OTHER)
                for i, (name, _, _) in enumerate(self._series)
            ])
        return canvas.to_string()


class Histogram(_ChartBase):
    """Distribution plot of a sample (the paper's Figs. 6 and 8)."""

    def __init__(self, title: str, x_label: str = "", y_label: str = "count",
                 width: float = 640.0, height: float = 400.0, bins: int = 20,
                 color: str = "") -> None:
        super().__init__(title, x_label, y_label, width, height)
        if bins < 1:
            raise ValueError("bins must be >= 1")
        self.bins = bins
        self.color = color or CATEGORICAL[0]
        self._values: List[float] = []

    def add_values(self, values: Sequence[float]) -> "Histogram":
        self._values.extend(float(v) for v in values)
        return self

    def histogram(self) -> Tuple[List[float], List[int]]:
        """(bin_edges, counts) — exposed so tests can assert the binning."""
        if not self._values:
            raise ValueError("no values added")
        lo, hi = min(self._values), max(self._values)
        if hi == lo:
            hi = lo + 1.0
        step = (hi - lo) / self.bins
        edges = [lo + i * step for i in range(self.bins + 1)]
        counts = [0] * self.bins
        for v in self._values:
            idx = min(int((v - lo) / step), self.bins - 1)
            counts[idx] += 1
        return edges, counts

    def render(self) -> str:
        edges, counts = self.histogram()
        y_ticks_v = nice_ticks(0.0, max(counts) or 1.0)
        frame = _Frame(self.width, self.height, edges[0], edges[-1],
                       y_ticks_v[0], y_ticks_v[-1])
        canvas = SvgCanvas(self.width, self.height, background=SURFACE)
        x_ticks = nice_ticks(edges[0], edges[-1])
        self._scaffold(canvas, frame,
                       [(v, f"{v:g}") for v in x_ticks if edges[0] <= v <= edges[-1]],
                       [(v, _fmt_val(v)) for v in y_ticks_v])
        base_y = frame.py(0.0)
        for i, count in enumerate(counts):
            x0, x1 = frame.px(edges[i]), frame.px(edges[i + 1])
            y = frame.py(count)
            canvas.rect(x0 + 1, y, max(1.0, x1 - x0 - 2), max(0.0, base_y - y),
                        fill=self.color, rx=2,
                        tooltip=f"[{edges[i]:g}, {edges[i+1]:g}): {count}")
        canvas.text(self.width - _MARGIN_RIGHT, 24,
                    f"n={len(self._values)}", fill=TEXT_MUTED,
                    size=11, anchor="end")
        return canvas.to_string()


class Heatmap:
    """Row×column magnitude grid on the one-hue sequential ramp."""

    def __init__(self, title: str, row_labels: Sequence[str],
                 col_labels: Sequence[str], values: Sequence[Sequence[float]],
                 width: float = 720.0, cell_h: float = 18.0,
                 x_label: str = "", y_label: str = "") -> None:
        self.title = title
        self.row_labels = list(row_labels)
        self.col_labels = list(col_labels)
        self.values = [list(row) for row in values]
        if len(self.values) != len(self.row_labels):
            raise ValueError("values row count must match row_labels")
        for row in self.values:
            if len(row) != len(self.col_labels):
                raise ValueError("values column count must match col_labels")
        self.width = width
        self.cell_h = cell_h
        self.x_label = x_label
        self.y_label = y_label

    def render(self) -> str:
        left = 120.0
        top = 48.0
        bottom = 56.0
        n_rows, n_cols = len(self.row_labels), len(self.col_labels)
        if n_rows == 0 or n_cols == 0:
            raise ValueError("heatmap needs at least one row and one column")
        height = top + n_rows * self.cell_h + bottom
        canvas = SvgCanvas(self.width, height, background=SURFACE)
        canvas.text(left, 24, self.title, fill=TEXT_PRIMARY,
                    size=14, weight="600")
        cell_w = (self.width - left - 18.0) / n_cols
        flat = [v for row in self.values for v in row]
        vmin, vmax = min(flat), max(flat)
        for r, row_label in enumerate(self.row_labels):
            y = top + r * self.cell_h
            canvas.text(left - 8, y + self.cell_h * 0.7, row_label,
                        fill=TEXT_SECONDARY, size=10, anchor="end")
            for c in range(n_cols):
                value = self.values[r][c]
                canvas.rect(left + c * cell_w + 1, y + 1, cell_w - 2, self.cell_h - 2,
                            fill=sequential_color(value, vmin, vmax), rx=2,
                            tooltip=f"{row_label} / {self.col_labels[c]}: {value:g}")
        step = max(1, n_cols // 12)
        base_y = top + n_rows * self.cell_h
        for c in range(0, n_cols, step):
            canvas.text(left + c * cell_w + cell_w / 2, base_y + 16,
                        self.col_labels[c], fill=TEXT_SECONDARY, size=10,
                        anchor="middle")
        if self.x_label:
            canvas.text(left + (self.width - left) / 2, height - 12, self.x_label,
                        fill=TEXT_SECONDARY, size=12, anchor="middle")
        return canvas.to_string()
