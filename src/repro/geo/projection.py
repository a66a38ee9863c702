"""Map projections used by the renderer and vectorized distance kernels.

The city-scale views in CrowdWeb use a local equirectangular projection:
good enough at ~40 km extents, trivially invertible, and fast to vectorize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

from .bbox import BoundingBox
from .point import EARTH_RADIUS_M, GeoPoint

__all__ = [
    "EquirectangularProjection",
    "ScreenProjection",
    "centroid_lat_lon",
    "haversine_pairs_m",
]

_DEG2RAD = math.pi / 180.0
_RAD2DEG = 180.0 / math.pi


@dataclass(frozen=True)
class EquirectangularProjection:
    """Project lat/lon onto a local tangent plane in meters.

    The projection is centered on ``origin``; x grows east, y grows north.
    """

    origin: GeoPoint

    def forward(self, lat: float, lon: float) -> Tuple[float, float]:
        """(lat, lon) → (x_m, y_m) relative to the origin."""
        cos_phi0 = math.cos(self.origin.lat * _DEG2RAD)
        x = (lon - self.origin.lon) * _DEG2RAD * cos_phi0 * EARTH_RADIUS_M
        y = (lat - self.origin.lat) * _DEG2RAD * EARTH_RADIUS_M
        return x, y


@dataclass(frozen=True)
class ScreenProjection:
    """Map a :class:`BoundingBox` onto a pixel viewport.

    Latitude increases northward but pixel y grows downward, so y is flipped.
    The aspect ratio is *not* preserved automatically; callers that want
    square meters should size the viewport from ``bbox.width_m/height_m``.
    """

    bbox: BoundingBox
    width_px: float
    height_px: float
    padding_px: float = 0.0

    def __post_init__(self) -> None:
        if self.width_px <= 0 or self.height_px <= 0:
            raise ValueError("viewport dimensions must be positive")
        if self.padding_px < 0 or 2 * self.padding_px >= min(self.width_px, self.height_px):
            raise ValueError("padding must be non-negative and smaller than half the viewport")

    def to_screen(self, lat: float, lon: float) -> Tuple[float, float]:
        """(lat, lon) → (x_px, y_px); points outside the bbox land outside the viewport."""
        inner_w = self.width_px - 2 * self.padding_px
        inner_h = self.height_px - 2 * self.padding_px
        lon_span = self.bbox.lon_span or 1e-12
        lat_span = self.bbox.lat_span or 1e-12
        fx = (lon - self.bbox.min_lon) / lon_span
        fy = (lat - self.bbox.min_lat) / lat_span
        return self.padding_px + fx * inner_w, self.padding_px + (1.0 - fy) * inner_h


def haversine_pairs_m(
    lats1: Union[float, np.ndarray], lons1: Union[float, np.ndarray],
    lats2: np.ndarray, lons2: np.ndarray,
) -> List[float]:
    """:func:`~repro.geo.point.haversine_m` of each pair of points, bit for bit.

    The same operations in the same order: ``float_power`` is the C ``pow``
    that Python's ``** 2`` calls (``np.square`` rounds differently), and
    the arcsine is ``math.asin``, from which numpy's may differ in the
    last place.  ``lats1``/``lons1`` may be one point.
    """
    phi1 = lats1 * _DEG2RAD
    phi2 = lats2 * _DEG2RAD
    dphi = (lats2 - lats1) * _DEG2RAD
    dlam = (lons2 - lons1) * _DEG2RAD
    a = (np.float_power(np.sin(dphi / 2.0), 2)
         + np.cos(phi1) * np.cos(phi2) * np.float_power(np.sin(dlam / 2.0), 2))
    roots = np.sqrt(np.minimum(1.0, np.maximum(0.0, a))).tolist()
    return [2.0 * EARTH_RADIUS_M * math.asin(root) for root in roots]


def centroid_lat_lon(lats: np.ndarray, lons: np.ndarray) -> Tuple[float, float]:
    """:func:`~repro.geo.point.centroid` of the points, bit for bit.

    Its unit-vector components are added one by one from the left, as
    ``centroid``'s loop adds them (``np.cumsum`` is sequential; ``np.sum``
    and Python 3.12's ``sum`` are not).
    """
    n = len(lats)
    if n == 0:
        raise ValueError("centroid of an empty point set is undefined")
    phi, lam = lats * _DEG2RAD, lons * _DEG2RAD
    xs = float(np.cumsum(np.cos(phi) * np.cos(lam))[-1]) / n
    ys = float(np.cumsum(np.cos(phi) * np.sin(lam))[-1]) / n
    zs = float(np.cumsum(np.sin(phi))[-1]) / n
    hyp = math.hypot(xs, ys)
    if hyp == 0.0 and zs == 0.0:
        raise ValueError("centroid is degenerate (antipodal points cancel out)")
    return math.atan2(zs, hyp) * _RAD2DEG, math.atan2(ys, xs) * _RAD2DEG
