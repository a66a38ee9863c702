"""GPS-trace rendering: one day of fixes, its stay points, and the path.

Completes the DBSCAN+RNN story visually: the raw trace (simplified with
Douglas–Peucker), detected stay points sized by dwell time, and optionally
the significant-place cluster centers.
"""

from __future__ import annotations

from typing import Sequence

from ..geo import BoundingBox, GeoPoint, ScreenProjection, simplify_polyline
from ..sequences.staypoints import Fix, StayPoint
from .palette import CATEGORICAL, GRID, SURFACE, TEXT_MUTED, TEXT_PRIMARY
from .svg import SvgCanvas

__all__ = ["render_trace"]


def render_trace(
    fixes: Sequence[Fix],
    stay_points: Sequence[StayPoint] = (),
    cluster_centers: Sequence[GeoPoint] = (),
    width: float = 720.0,
    height: float = 560.0,
    simplify_tolerance_m: float = 25.0,
    title: str = "GPS trace",
) -> str:
    """One trace as SVG: path, stay points (dwell-sized), cluster centers."""
    if not fixes:
        raise ValueError("need at least one fix to render")
    points = [f.point for f in fixes]
    bbox = BoundingBox.from_points(
        list(points) + [s.location for s in stay_points] + list(cluster_centers)
    ).expand(0.003)
    projection = ScreenProjection(bbox, width, height - 40.0, padding_px=12.0)
    canvas = SvgCanvas(width, height, background=SURFACE)
    canvas.text(12, 22, title, fill=TEXT_PRIMARY, size=14, weight="600")
    canvas.text(width - 12, 22, f"{len(fixes)} fixes", fill=TEXT_MUTED,
                size=11, anchor="end")
    canvas.group(transform="translate(0 30)")

    simplified = simplify_polyline(points, simplify_tolerance_m)
    path = [projection.to_screen(p.lat, p.lon) for p in simplified]
    if len(path) > 1:
        canvas.polyline(path, stroke=GRID, stroke_width=2, opacity=0.9)

    # Cluster centers (significant places) as rings underneath the stays.
    for center in cluster_centers:
        x, y = projection.to_screen(center.lat, center.lon)
        canvas.circle(x, y, 11, fill="none", stroke=CATEGORICAL[1],
                      stroke_width=2, opacity=0.8,
                      tooltip=f"significant place ({center.lat:.4f}, {center.lon:.4f})")

    max_dwell = max((s.duration_s for s in stay_points), default=1.0)
    for stay in stay_points:
        x, y = projection.to_screen(stay.location.lat, stay.location.lon)
        radius = 4.0 + 6.0 * (stay.duration_s / max_dwell)
        canvas.circle(
            x, y, radius, fill=CATEGORICAL[0], opacity=0.85,
            stroke=SURFACE, stroke_width=2,
            tooltip=(f"stay {stay.arrival:%H:%M}-{stay.departure:%H:%M} "
                     f"({stay.duration_s / 60:.0f} min, {stay.n_fixes} fixes)"),
        )

    # Start/end markers.
    sx, sy = projection.to_screen(points[0].lat, points[0].lon)
    ex, ey = projection.to_screen(points[-1].lat, points[-1].lon)
    canvas.circle(sx, sy, 4, fill=CATEGORICAL[3], tooltip="start")
    canvas.circle(ex, ey, 4, fill=CATEGORICAL[5], tooltip="end")
    canvas.endgroup()
    return canvas.to_string()
