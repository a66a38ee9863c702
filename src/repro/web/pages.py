"""HTML page rendering for the web platform (all server-side, no JS build).

Each page is a self-contained HTML document with inline SVG.  Interactivity
is plain links (the time slider is a row of window links) plus a few lines
of vanilla JS for the animation player — deliberately simple so the whole
platform runs from the standard library.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Optional
from xml.sax.saxutils import escape

from ..analysis import user_mobility_metrics
from ..crowd import build_animation, detect_communities
from ..patterns import build_place_graph, summarize_profile
from ..pipeline import PipelineResult
from ..sequences import make_labeler
from ..viz import Heatmap, render_place_graph
from ..viz.palette import SURFACE, TEXT_PRIMARY, TEXT_SECONDARY
from .tiles import DEFAULT_MAX_ZOOM

__all__ = ["Pages"]

_NAV = (
    '<p><a href="/">Home</a> · <a href="/users">Users</a> · '
    '<a href="/city">City view</a> · <a href="/occupancy">Occupancy</a> · '
    '<a href="/communities">Communities</a> · <a href="/analytics">Analytics</a> · '
    '<a href="/animation">Animation</a></p>'
)


def _page(title: str, body: str) -> str:
    return (
        "<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\"/>"
        f"<title>{escape(title)}</title><style>"
        f"body{{font-family:system-ui,sans-serif;background:{SURFACE};"
        f"color:{TEXT_PRIMARY};max-width:900px;margin:2rem auto;padding:0 1rem}}"
        f"a{{color:#2a78d6}} p.muted{{color:{TEXT_SECONDARY};font-size:0.9rem}}"
        "table{border-collapse:collapse}th,td{padding:0.25rem 0.8rem;"
        "text-align:left;border-bottom:1px solid #e7e6e2;font-size:0.9rem}"
        ".slider a{display:inline-block;margin:2px;padding:2px 6px;"
        "border:1px solid #d6d5d0;border-radius:4px;text-decoration:none}"
        ".slider a.active{background:#2a78d6;color:#fff;border-color:#2a78d6}"
        f"</style></head><body>{_NAV}{body}</body></html>"
    )


class Pages:
    """Server-side page renderer over a pipeline result."""

    def __init__(self, result: PipelineResult) -> None:
        self.result = result

    # ---------------------------------------------------------------- home

    def home(self) -> str:
        r = self.result
        rows = "".join(
            f"<tr><td>{escape(k)}</td><td>{escape(v)}</td></tr>"
            for k, v in r.report.as_rows()
        )
        occupancy = "".join(
            f"<tr><td>{escape(label)}</td><td>{n}</td></tr>"
            for label, n in r.timeline.occupancy_series()
            if n > 0
        )
        body = (
            "<h1>CrowdWeb — crowd mobility patterns</h1>"
            f"<p class=\"muted\">dataset {escape(r.dataset.name)} · "
            f"{len(r.dataset):,} check-ins · {r.n_users} users with profiles</p>"
            "<h2>Pre-processing</h2>"
            f"<table><tr><th>step</th><th>value</th></tr>{rows}</table>"
            "<h2>Crowd size by window</h2>"
            f"<table><tr><th>window</th><th>users placed</th></tr>{occupancy}</table>"
        )
        return _page("CrowdWeb", body)

    # --------------------------------------------------------------- users

    def users(self) -> str:
        rows = []
        for user_id in sorted(self.result.profiles):
            profile = self.result.profiles[user_id]
            rows.append(
                f'<tr><td><a href="/user/{escape(user_id)}">{escape(user_id)}</a></td>'
                f"<td>{profile.n_patterns}</td><td>{profile.n_days}</td>"
                f"<td>{escape(', '.join(profile.labels()[:4]))}</td></tr>"
            )
        body = (
            "<h1>Users</h1>"
            "<table><tr><th>user</th><th>patterns</th><th>days</th>"
            f"<th>places</th></tr>{''.join(rows)}</table>"
        )
        return _page("CrowdWeb — users", body)

    def user(self, user_id: str) -> Optional[str]:
        profile = self.result.profiles.get(user_id)
        if profile is None:
            return None
        labeler = make_labeler(self.result.taxonomy, profile.level)
        graph = build_place_graph(self.result.dataset, user_id, labeler, profile.binning)
        svg = render_place_graph(graph, title=f"Places visited by {user_id}")
        summary = summarize_profile(profile, k=12)
        body = (
            f"<h1>User {escape(user_id)}</h1>"
            f"<pre>{escape(summary)}</pre>"
            f"<figure>{svg}</figure>"
        )
        return _page(f"CrowdWeb — {user_id}", body)

    # ---------------------------------------------------------------- city

    def city(self, window_index: int = 9, zoom: int = 2) -> str:
        """The tiled city view: the page ships no cell data of its own.

        The client fetches ``/api/tiles/<z>/<x>/<y>?window=<i>`` for the
        ``2^z × 2^z`` tiles of the chosen zoom and draws the aggregated
        cells — each tile response is independently cacheable (ETag/gzip),
        so scrubbing the time slider re-downloads nothing that was already
        seen.  The old monolithic-SVG path lives on in ``repro.viz`` for
        reports; this page is the serving-layer replacement.  The route
        clamps ``window_index`` to the timeline and ``zoom`` to the tiles'.
        """
        timeline = self.result.timeline
        snap = timeline[window_index]
        slider_parts = []
        for i, s in enumerate(timeline):
            active = ' class="active"' if i == window_index else ""
            start = escape(s.window.label.split("-")[0])
            slider_parts.append(
                f'<a href="/city?window={i}&amp;zoom={zoom}"{active}>{start}</a>'
            )
        slider = "".join(slider_parts)
        zoom_parts = []
        for z in range(DEFAULT_MAX_ZOOM + 1):
            active = ' class="active"' if z == zoom else ""
            zoom_parts.append(
                f'<a href="/city?window={window_index}&amp;zoom={z}"{active}>z{z}</a>'
            )
        zoom_bar = "".join(zoom_parts)
        groups = snap.groups(min_size=2)
        group_rows = "".join(
            f"<tr><td>{escape(g.label)}</td><td>{g.size}</td>"
            f"<td>{escape(', '.join(g.user_ids[:8]))}</td></tr>"
            for g in groups[:12]
        )
        config = {"window": window_index, "zoom": zoom}
        body = (
            "<h1>City view</h1>"
            f'<div class="slider">{slider}</div>'
            f'<div class="slider">{zoom_bar}</div>'
            '<svg id="citymap" width="760" height="560" '
            'style="background:#f2f1ed;border-radius:6px"></svg>'
            '<p id="tilestatus" class="muted"></p>'
            f"<script>const CFG = {json.dumps(config)};\n"
            "const svg = document.getElementById('citymap');\n"
            "const status = document.getElementById('tilestatus');\n"
            "const n = 1 << CFG.zoom;\n"
            "const tiles = [];\n"
            "for (let x = 0; x < n; x++) for (let y = 0; y < n; y++)\n"
            "  tiles.push(fetch(`/api/tiles/${CFG.zoom}/${x}/${y}?window=${CFG.window}`)\n"
            "    .then(r => r.json()));\n"
            "Promise.all([fetch('/api/tiles').then(r => r.json()), ...tiles])\n"
            ".then(([scheme, ...fetched]) => {\n"
            "  const [minLat, minLon, maxLat, maxLon] = scheme.bbox;\n"
            "  const px = lon => 10 + (lon - minLon) / (maxLon - minLon) * 740;\n"
            "  const py = lat => 10 + (1 - (lat - minLat) / (maxLat - minLat)) * 540;\n"
            "  let users = 0, shapes = [];\n"
            "  for (const tile of fetched) {\n"
            "    users += tile.n_users;\n"
            "    for (const c of tile.cells) {\n"
            "      const [blat, blon, tlat, tlon] = c.bbox;\n"
            "      const w = Math.max(2, px(tlon) - px(blon));\n"
            "      const h = Math.max(2, py(blat) - py(tlat));\n"
            "      const alpha = Math.min(0.85, 0.25 + c.count * 0.12);\n"
            "      shapes.push(`<rect x='${px(blon)}' y='${py(tlat)}' "
            "width='${w}' height='${h}' fill='#2a78d6' fill-opacity='${alpha}' "
            "stroke='#fcfcfb'><title>${c.top_label}: ${c.count} users "
            "(cell ${c.row},${c.col})</title></rect>`);\n"
            "    }\n"
            "  }\n"
            "  svg.innerHTML = shapes.join('');\n"
            "  status.textContent = `${users} users across ${fetched.length} "
            "tiles at zoom ${CFG.zoom}`;\n"
            "});\n"
            "</script>"
            f"<h2>Groups in window {escape(snap.window.label)}</h2>"
            "<table><tr><th>place</th><th>users</th><th>members</th></tr>"
            f"{group_rows}</table>"
        )
        return _page("CrowdWeb — city", body)

    # ----------------------------------------------------------- occupancy

    def occupancy(self) -> str:
        """Per-microcell occupancy heatmap across the whole day."""
        matrix = self.result.timeline.cell_occupancy_matrix()
        top_cells = sorted(matrix, key=lambda c: -sum(matrix[c]))[:25]
        if not top_cells:
            body = "<h1>Occupancy</h1><p class=\"muted\">no crowd placed</p>"
            return _page("CrowdWeb — occupancy", body)
        svg = Heatmap(
            "Crowd occupancy by microcell and hour",
            row_labels=[self.result.grid.cell(c).cell_id for c in top_cells],
            col_labels=[f"{h:02d}" for h in range(24)],
            values=[matrix[c] for c in top_cells],
            x_label="hour of day",
        ).render()
        body = f"<h1>Occupancy</h1><figure>{svg}</figure>"
        return _page("CrowdWeb — occupancy", body)

    # --------------------------------------------------------- communities

    def communities(self) -> str:
        """Behavioural communities over the profiled users."""
        communities = detect_communities(self.result.profiles, min_similarity=0.05)
        rows = []
        for community in communities:
            labels = Counter()
            for uid in community.user_ids:
                labels.update(self.result.profiles[uid].labels())
            themes = ", ".join(label for label, _ in labels.most_common(3)) or "-"
            members = " ".join(
                f'<a href="/user/{escape(uid)}">{escape(uid)}</a>'
                for uid in community.user_ids
            )
            rows.append(
                f"<tr><td>#{community.community_id}</td><td>{community.size}</td>"
                f"<td>{members}</td><td>{escape(themes)}</td></tr>"
            )
        body = (
            "<h1>Behavioural communities</h1>"
            "<p class=\"muted\">pattern-similarity graph, link-strength "
            "label propagation</p>"
            "<table><tr><th>id</th><th>size</th><th>members</th>"
            f"<th>themes</th></tr>{''.join(rows)}</table>"
        )
        return _page("CrowdWeb — communities", body)

    # ----------------------------------------------------------- analytics

    def analytics(self) -> str:
        """Mobility analytics table for every profiled user."""
        rows = []
        for uid in sorted(self.result.profiles):
            try:
                m = user_mobility_metrics(self.result.dataset, uid)
            except ValueError:
                continue
            rows.append(
                f'<tr><td><a href="/user/{escape(uid)}">{escape(uid)}</a></td>'
                f"<td>{m.n_checkins}</td><td>{m.n_distinct_venues}</td>"
                f"<td>{m.radius_of_gyration_m / 1000:.1f}</td>"
                f"<td>{m.s_estimated:.2f}</td>"
                f"<td>{m.predictability_bound:.0%}</td></tr>"
            )
        body = (
            "<h1>Mobility analytics</h1>"
            "<p class=\"muted\">entropy and predictability bound "
            "(Song et al. 2010)</p>"
            "<table><tr><th>user</th><th>check-ins</th><th>venues</th>"
            "<th>r<sub>g</sub> (km)</th><th>S<sub>est</sub> (bits)</th>"
            f"<th>Π<sub>max</sub></th></tr>{''.join(rows)}</table>"
        )
        return _page("CrowdWeb — analytics", body)

    # ----------------------------------------------------------- animation

    def animation(self) -> str:
        """The automated crowd-movement animation (future-work feature).

        Frames are precomputed server-side; a few lines of vanilla JS cycle
        the dot positions.
        """
        frames = build_animation(self.result.timeline, steps_per_transition=3)
        grid = self.result.grid
        payload = {
            "bbox": [grid.bbox.min_lat, grid.bbox.min_lon,
                     grid.bbox.max_lat, grid.bbox.max_lon],
            "frames": [f.to_dict() for f in frames],
        }
        body = (
            "<h1>Crowd movement animation</h1>"
            "<p class=\"muted\">Each dot is a user gliding between their "
            "pattern-grounded locations as the day progresses.</p>"
            '<svg id="anim" width="760" height="560" '
            'style="background:#f2f1ed;border-radius:6px"></svg>'
            '<p id="label" class="muted"></p>'
            f"<script>const DATA = {json.dumps(payload)};\n"
            "const svg = document.getElementById('anim');\n"
            "const [minLat, minLon, maxLat, maxLon] = DATA.bbox;\n"
            "function px(lon){return 10 + (lon - minLon) / (maxLon - minLon) * 740;}\n"
            "function py(lat){return 10 + (1 - (lat - minLat) / (maxLat - minLat)) * 540;}\n"
            "let i = 0;\n"
            "function tick(){\n"
            "  const f = DATA.frames[i];\n"
            "  svg.innerHTML = f.dots.map(d =>\n"
            "    `<circle cx='${px(d.lon)}' cy='${py(d.lat)}' r='5' "
            "fill='${d.moving ? '#eb6834' : '#2a78d6'}' stroke='#fcfcfb' "
            "stroke-width='2'><title>${d.user_id}: ${d.label}</title></circle>`\n"
            "  ).join('');\n"
            "  document.getElementById('label').textContent = "
            "`window ${f.window} (t=${f.t})`;\n"
            "  i = (i + 1) % DATA.frames.length;\n"
            "}\n"
            "tick(); setInterval(tick, 350);\n"
            "</script>"
        )
        return _page("CrowdWeb — animation", body)
