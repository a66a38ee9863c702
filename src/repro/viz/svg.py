"""A minimal SVG document builder (no dependencies).

Just enough structure for the chart kit and the city renderer: escaped
attributes, nested groups, ``<title>`` tooltips on marks, and file output.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union
from xml.sax.saxutils import escape, quoteattr

__all__ = ["SvgCanvas"]

Number = Union[int, float]

# XML 1.0 forbids most C0 control characters even when escaped; strip them
# (plus surrogates and U+FFFE/U+FFFF) from any user-supplied text.
_XML_INVALID = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


#: Characters an attribute value cannot be written with as it is: what
#: ``quoteattr`` escapes or picks its quote by, and what ``_sanitize`` strips.
_NOT_VERBATIM = re.compile(r"[&<>\"'\t\n\r\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _sanitize(text: str) -> str:
    return _XML_INVALID.sub("", text)


@lru_cache(maxsize=None)
def _attr_name(key: str) -> str:
    """``stroke_width`` → ``stroke-width``; the keys are the helpers' own keywords."""
    return key.rstrip("_").replace("_", "-")


def _fmt(value: Number) -> str:
    """Compact numeric formatting: drop trailing zeros, keep 2 decimals."""
    if isinstance(value, int):
        return str(value)
    return f"{value:.2f}".rstrip("0").rstrip(".")


class SvgCanvas:
    """An append-only SVG document.

    Elements are added through typed helpers; ``tooltip=`` adds a ``<title>``
    child (browser-native hover text).  ``group``/``endgroup`` manage nesting.
    """

    def __init__(self, width: Number, height: Number, background: Optional[str] = None) -> None:
        if width <= 0 or height <= 0:
            raise ValueError("canvas dimensions must be positive")
        self.width = width
        self.height = height
        self._parts: List[str] = []
        self._open_groups = 0
        if background:
            self.rect(0, 0, width, height, fill=background, stroke="none")

    # ------------------------------------------------------------ plumbing

    def _attrs(self, attrs: Dict[str, Union[str, Number, None]]) -> str:
        chunks = []
        for key, value in attrs.items():
            if value is None:
                continue
            name = _attr_name(key)
            if isinstance(value, (int, float)):
                chunks.append(f'{name}="{_fmt(value)}"')
            else:
                text = str(value)
                if _NOT_VERBATIM.search(text) is None:
                    chunks.append(f'{name}="{text}"')
                else:
                    chunks.append(f"{name}={quoteattr(_sanitize(text))}")
        return " ".join(chunks)

    def _element(self, tag: str, attrs: Dict, tooltip: Optional[str] = None) -> None:
        rendered = self._attrs(attrs)
        if tooltip:
            self._parts.append(
                f"<{tag} {rendered}><title>{escape(_sanitize(tooltip))}</title></{tag}>"
            )
        else:
            self._parts.append(f"<{tag} {rendered}/>")

    # ------------------------------------------------------------- shapes

    def line(self, x1: Number, y1: Number, x2: Number, y2: Number, *, stroke: str,
             stroke_width: Number = 1, dash: Optional[str] = None, opacity: Optional[Number] = None) -> None:
        self._element("line", {
            "x1": x1, "y1": y1, "x2": x2, "y2": y2, "stroke": stroke,
            "stroke_width": stroke_width, "stroke_dasharray": dash, "opacity": opacity,
        })

    def rect(self, x: Number, y: Number, w: Number, h: Number, *, fill: str,
             stroke: str = "none", stroke_width: Number = 1, rx: Optional[Number] = None,
             opacity: Optional[Number] = None, tooltip: Optional[str] = None) -> None:
        self._element("rect", {
            "x": x, "y": y, "width": max(0, w), "height": max(0, h), "fill": fill,
            "stroke": stroke, "stroke_width": stroke_width, "rx": rx, "opacity": opacity,
        }, tooltip)

    def circle(self, cx: Number, cy: Number, r: Number, *, fill: str,
               stroke: str = "none", stroke_width: Number = 1,
               opacity: Optional[Number] = None, tooltip: Optional[str] = None) -> None:
        self._element("circle", {
            "cx": cx, "cy": cy, "r": r, "fill": fill, "stroke": stroke,
            "stroke_width": stroke_width, "opacity": opacity,
        }, tooltip)

    def polyline(self, points: Sequence[Tuple[Number, Number]], *, stroke: str,
                 stroke_width: Number = 2, fill: str = "none",
                 opacity: Optional[Number] = None) -> None:
        path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self._element("polyline", {
            "points": path, "stroke": stroke, "stroke_width": stroke_width,
            "fill": fill, "opacity": opacity, "stroke_linejoin": "round",
            "stroke_linecap": "round",
        })

    def path(self, d: str, *, fill: str = "none", stroke: str = "none",
             stroke_width: Number = 1, opacity: Optional[Number] = None) -> None:
        self._element("path", {
            "d": d, "fill": fill, "stroke": stroke, "stroke_width": stroke_width,
            "opacity": opacity,
        })

    def text(self, x: Number, y: Number, content: str, *, fill: str,
             size: Number = 12, anchor: str = "start", weight: str = "normal",
             family: str = "system-ui, sans-serif", rotate: Optional[Number] = None,
             opacity: Optional[Number] = None) -> None:
        attrs = {
            "x": x, "y": y, "fill": fill, "font_size": size,
            "text_anchor": anchor, "font_weight": weight, "font_family": family,
            "opacity": opacity,
        }
        if rotate is not None:
            attrs["transform"] = f"rotate({_fmt(rotate)} {_fmt(x)} {_fmt(y)})"
        rendered = self._attrs(attrs)
        self._parts.append(f"<text {rendered}>{escape(_sanitize(content))}</text>")

    # -------------------------------------------------------------- groups

    def group(self, *, opacity: Optional[Number] = None, transform: Optional[str] = None) -> None:
        rendered = self._attrs({"opacity": opacity, "transform": transform})
        self._parts.append(f"<g {rendered}>" if rendered else "<g>")
        self._open_groups += 1

    def endgroup(self) -> None:
        if self._open_groups <= 0:
            raise ValueError("endgroup() without matching group()")
        self._parts.append("</g>")
        self._open_groups -= 1

    # -------------------------------------------------------------- output

    def to_string(self) -> str:
        if self._open_groups:
            raise ValueError(f"{self._open_groups} unclosed group(s)")
        body = "\n".join(self._parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(self.width)}" '
            f'height="{_fmt(self.height)}" viewBox="0 0 {_fmt(self.width)} {_fmt(self.height)}" '
            f'role="img">\n{body}\n</svg>'
        )
