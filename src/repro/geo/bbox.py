"""Axis-aligned geographic bounding boxes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .point import GeoPoint, haversine_m, validate_lat_lon

__all__ = ["BoundingBox", "NYC_BBOX"]


@dataclass(frozen=True)
class BoundingBox:
    """A lat/lon axis-aligned rectangle (no antimeridian crossing).

    ``min_lat <= max_lat`` and ``min_lon <= max_lon`` are enforced; boxes that
    cross the antimeridian must be split by the caller.
    """

    min_lat: float
    min_lon: float
    max_lat: float
    max_lon: float

    def __post_init__(self) -> None:
        validate_lat_lon(self.min_lat, self.min_lon)
        validate_lat_lon(self.max_lat, self.max_lon)
        if self.min_lat > self.max_lat:
            raise ValueError(f"min_lat {self.min_lat} > max_lat {self.max_lat}")
        if self.min_lon > self.max_lon:
            raise ValueError(f"min_lon {self.min_lon} > max_lon {self.max_lon}")

    @classmethod
    def from_points(cls, points: Iterable[GeoPoint]) -> "BoundingBox":
        """Tightest box covering ``points`` (raises on an empty iterable)."""
        it = iter(points)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("cannot build a bounding box from zero points") from None
        min_lat = max_lat = first.lat
        min_lon = max_lon = first.lon
        for p in it:
            min_lat = min(min_lat, p.lat)
            max_lat = max(max_lat, p.lat)
            min_lon = min(min_lon, p.lon)
            max_lon = max(max_lon, p.lon)
        return cls(min_lat, min_lon, max_lat, max_lon)

    @property
    def center(self) -> GeoPoint:
        return GeoPoint(
            (self.min_lat + self.max_lat) / 2.0,
            (self.min_lon + self.max_lon) / 2.0,
        )

    @property
    def lat_span(self) -> float:
        return self.max_lat - self.min_lat

    @property
    def lon_span(self) -> float:
        return self.max_lon - self.min_lon

    def width_m(self) -> float:
        """East-west extent measured along the box's mid latitude."""
        mid = (self.min_lat + self.max_lat) / 2.0
        return haversine_m(mid, self.min_lon, mid, self.max_lon)

    def height_m(self) -> float:
        """North-south extent in meters."""
        return haversine_m(self.min_lat, self.min_lon, self.max_lat, self.min_lon)

    def contains_lat_lon(self, lat, lon):
        """Whether the point is inside, edges included; element-wise for arrays."""
        return (self.min_lat <= lat) & (lat <= self.max_lat) & (self.min_lon <= lon) & (
            lon <= self.max_lon)

    def union(self, other: "BoundingBox") -> "BoundingBox":
        """Smallest box covering both."""
        return BoundingBox(
            min(self.min_lat, other.min_lat),
            min(self.min_lon, other.min_lon),
            max(self.max_lat, other.max_lat),
            max(self.max_lon, other.max_lon),
        )

    def expand(self, margin_deg: float) -> "BoundingBox":
        """Grow the box by ``margin_deg`` on every side (clamped to valid range)."""
        return BoundingBox(
            max(-90.0, self.min_lat - margin_deg),
            max(-180.0, self.min_lon - margin_deg),
            min(90.0, self.max_lat + margin_deg),
            min(180.0, self.max_lon + margin_deg),
        )


#: The rough New York City study area of the Foursquare NYC dataset.
NYC_BBOX = BoundingBox(min_lat=40.55, min_lon=-74.10, max_lat=40.95, max_lon=-73.68)
