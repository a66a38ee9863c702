"""Geographic substrate: points, boxes, grids, clustering.

This package is the spatial foundation of the CrowdWeb reproduction: the
microcell grid that the crowd views aggregate into, the projections used by
the SVG city renderer, and the clustering used by the prediction baselines.
"""

from .bbox import NYC_BBOX, BoundingBox
from .dbscan import NOISE, DBSCANResult, dbscan
from .grid import CellIndex, Microcell, MicrocellGrid
from .point import (
    EARTH_RADIUS_M,
    GeoPoint,
    centroid,
    destination_point,
    equirectangular_m,
    haversine_m,
    normalize_lon,
    validate_lat_lon,
)
from .projection import (
    EquirectangularProjection,
    ScreenProjection,
    centroid_lat_lon,
    haversine_pairs_m,
)
from .simplify import perpendicular_distance_m, simplify_polyline

__all__ = [
    "EARTH_RADIUS_M",
    "NYC_BBOX",
    "NOISE",
    "BoundingBox",
    "CellIndex",
    "DBSCANResult",
    "EquirectangularProjection",
    "GeoPoint",
    "Microcell",
    "MicrocellGrid",
    "ScreenProjection",
    "centroid",
    "centroid_lat_lon",
    "dbscan",
    "destination_point",
    "equirectangular_m",
    "haversine_m",
    "haversine_pairs_m",
    "normalize_lon",
    "perpendicular_distance_m",
    "simplify_polyline",
    "validate_lat_lon",
]
