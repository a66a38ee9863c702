"""HTML report assembly: stitch SVG figures and tables into one page.

Used by the CLI's ``figures`` command and the examples to emit a single
self-contained HTML file (all SVG inline, no external assets).
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Sequence, Union
from xml.sax.saxutils import escape

from .palette import SURFACE, TEXT_PRIMARY, TEXT_SECONDARY

__all__ = ["HtmlReport"]

_PAGE_CSS = f"""
body {{
  font-family: system-ui, -apple-system, sans-serif;
  background: {SURFACE};
  color: {TEXT_PRIMARY};
  max-width: 880px;
  margin: 2rem auto;
  padding: 0 1rem;
}}
h1 {{ font-size: 1.5rem; }}
h2 {{ font-size: 1.15rem; margin-top: 2.2rem; }}
p.caption {{ color: {TEXT_SECONDARY}; font-size: 0.9rem; margin-top: 0.3rem; }}
table {{ border-collapse: collapse; margin: 0.8rem 0; }}
th, td {{ padding: 0.3rem 0.9rem; text-align: left; font-size: 0.9rem; }}
th {{ border-bottom: 2px solid #d6d5d0; }}
td {{ border-bottom: 1px solid #e7e6e2; }}
pre {{ background: #f2f1ed; padding: 0.8rem; overflow-x: auto; font-size: 0.85rem; }}
figure {{ margin: 1rem 0; }}
"""


class HtmlReport:
    """An append-only HTML document of headings, figures, tables, and text."""

    def __init__(self, title: str, subtitle: str = "") -> None:
        self.title = title
        self.subtitle = subtitle
        self._chunks: List[str] = []

    def add_heading(self, text: str) -> "HtmlReport":
        self._chunks.append(f"<h2>{escape(text)}</h2>")
        return self

    def add_svg(self, svg: str, caption: str = "") -> "HtmlReport":
        """Embed an already-rendered SVG string (trusted content)."""
        figure = f"<figure>{svg}"
        if caption:
            figure += f'<p class="caption">{escape(caption)}</p>'
        figure += "</figure>"
        self._chunks.append(figure)
        return self

    def add_table(
        self,
        headers: Sequence[str],
        rows: Sequence[Sequence[object]],
        caption: str = "",
    ) -> "HtmlReport":
        parts = ["<table>"]
        parts.append("<tr>" + "".join(f"<th>{escape(str(h))}</th>" for h in headers) + "</tr>")
        for row in rows:
            parts.append("<tr>" + "".join(f"<td>{escape(str(v))}</td>" for v in row) + "</tr>")
        parts.append("</table>")
        if caption:
            parts.append(f'<p class="caption">{escape(caption)}</p>')
        self._chunks.append("".join(parts))
        return self

    def add_preformatted(self, text: str) -> "HtmlReport":
        self._chunks.append(f"<pre>{escape(text)}</pre>")
        return self

    def to_html(self) -> str:
        subtitle = f'<p class="caption">{escape(self.subtitle)}</p>' if self.subtitle else ""
        body = "\n".join(self._chunks)
        return (
            "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
            f"<meta charset=\"utf-8\"/>\n<title>{escape(self.title)}</title>\n"
            f"<style>{_PAGE_CSS}</style>\n</head>\n<body>\n"
            f"<h1>{escape(self.title)}</h1>\n{subtitle}\n{body}\n</body>\n</html>"
        )

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_html(), encoding="utf-8")
        return path
