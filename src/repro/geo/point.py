"""Geographic points and great-circle geometry.

All coordinates are WGS84 latitude/longitude in decimal degrees.  Distances
are returned in meters.  The functions here are deliberately dependency-free
(plain ``math``) so they can be used in hot loops without pulling array
machinery in; vectorized variants live in :mod:`repro.geo.projection`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple

__all__ = [
    "EARTH_RADIUS_M",
    "GeoPoint",
    "haversine_m",
    "equirectangular_m",
    "destination_point",
    "centroid",
    "normalize_lon",
    "validate_lat_lon",
]

#: Mean Earth radius in meters (IUGG).
EARTH_RADIUS_M = 6_371_008.8

_DEG2RAD = math.pi / 180.0
_RAD2DEG = 180.0 / math.pi


def validate_lat_lon(lat: float, lon: float) -> None:
    """Raise :class:`ValueError` if ``(lat, lon)`` is outside WGS84 bounds."""
    if not (-90.0 <= lat <= 90.0):
        raise ValueError(f"latitude {lat!r} out of range [-90, 90]")
    if not (-180.0 <= lon <= 180.0):
        raise ValueError(f"longitude {lon!r} out of range [-180, 180]")


def normalize_lon(lon: float) -> float:
    """Wrap a longitude into ``[-180, 180)``."""
    wrapped = math.fmod(lon + 180.0, 360.0)
    if wrapped < 0:
        wrapped += 360.0
    return wrapped - 180.0


@dataclass(frozen=True, order=True)
class GeoPoint:
    """An immutable WGS84 point.

    ``GeoPoint`` is hashable and ordered (lexicographically by ``(lat, lon)``)
    so it can key dictionaries and sort deterministically in reports.
    """

    lat: float
    lon: float

    def __post_init__(self) -> None:
        validate_lat_lon(self.lat, self.lon)

    def distance_to(self, other: "GeoPoint") -> float:
        """Great-circle distance to ``other`` in meters."""
        return haversine_m(self.lat, self.lon, other.lat, other.lon)

    def fast_distance_to(self, other: "GeoPoint") -> float:
        """Equirectangular-approximation distance in meters (fast, ~city scale)."""
        return equirectangular_m(self.lat, self.lon, other.lat, other.lon)

    def offset(self, bearing_deg: float, distance_m: float) -> "GeoPoint":
        """The point ``distance_m`` meters away along ``bearing_deg``."""
        lat, lon = destination_point(self.lat, self.lon, bearing_deg, distance_m)
        return GeoPoint(lat, lon)

    def __iter__(self) -> Iterator[float]:
        yield self.lat
        yield self.lon


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two WGS84 points, in meters.

    Numerically stable for both tiny and antipodal separations.
    """
    phi1 = lat1 * _DEG2RAD
    phi2 = lat2 * _DEG2RAD
    dphi = (lat2 - lat1) * _DEG2RAD
    dlam = (lon2 - lon1) * _DEG2RAD
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    a = min(1.0, max(0.0, a))
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(a))


def equirectangular_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Equirectangular-approximation distance in meters.

    About 3x faster than :func:`haversine_m`; error is negligible at the
    city scale (tens of kilometers) CrowdWeb operates at.
    """
    mean_phi = (lat1 + lat2) * 0.5 * _DEG2RAD
    x = (lon2 - lon1) * _DEG2RAD * math.cos(mean_phi)
    y = (lat2 - lat1) * _DEG2RAD
    return EARTH_RADIUS_M * math.hypot(x, y)


def destination_point(
    lat: float, lon: float, bearing_deg: float, distance_m: float
) -> Tuple[float, float]:
    """The WGS84 point reached by traveling ``distance_m`` along ``bearing_deg``."""
    delta = distance_m / EARTH_RADIUS_M
    theta = bearing_deg * _DEG2RAD
    phi1 = lat * _DEG2RAD
    lam1 = lon * _DEG2RAD
    sin_phi2 = math.sin(phi1) * math.cos(delta) + math.cos(phi1) * math.sin(delta) * math.cos(theta)
    sin_phi2 = min(1.0, max(-1.0, sin_phi2))
    phi2 = math.asin(sin_phi2)
    lam2 = lam1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(phi1),
        math.cos(delta) - math.sin(phi1) * sin_phi2,
    )
    return phi2 * _RAD2DEG, normalize_lon(lam2 * _RAD2DEG)


def centroid(points: Iterable[GeoPoint]) -> GeoPoint:
    """Spherical centroid (mean of unit vectors) of a non-empty point set."""
    xs = ys = zs = 0.0
    n = 0
    for p in points:
        phi = p.lat * _DEG2RAD
        lam = p.lon * _DEG2RAD
        xs += math.cos(phi) * math.cos(lam)
        ys += math.cos(phi) * math.sin(lam)
        zs += math.sin(phi)
        n += 1
    if n == 0:
        raise ValueError("centroid of an empty point set is undefined")
    xs /= n
    ys /= n
    zs /= n
    hyp = math.hypot(xs, ys)
    if hyp == 0.0 and zs == 0.0:
        raise ValueError("centroid is degenerate (antipodal points cancel out)")
    return GeoPoint(math.atan2(zs, hyp) * _RAD2DEG, math.atan2(ys, xs) * _RAD2DEG)
