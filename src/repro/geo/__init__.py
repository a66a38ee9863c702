"""Geographic substrate: points, boxes, grids, indexes, clustering.

This package is the spatial foundation of the CrowdWeb reproduction: the
microcell grid that the crowd views aggregate into, the projections used by
the SVG city renderer, and the clustering/index structures used by the data
generator and the web API.
"""

from .bbox import NYC_BBOX, BoundingBox
from .dbscan import NOISE, DBSCANResult, dbscan
from .geohash import decode as geohash_decode
from .geohash import decode_bbox as geohash_decode_bbox
from .geohash import encode as geohash_encode
from .geohash import neighbors as geohash_neighbors
from .geohash import precision_for_cell_size_m
from .grid import CellIndex, Microcell, MicrocellGrid
from .point import (
    EARTH_RADIUS_M,
    GeoPoint,
    centroid,
    destination_point,
    equirectangular_m,
    haversine_m,
    initial_bearing_deg,
    midpoint,
    normalize_lon,
    path_length_m,
    validate_lat_lon,
)
from .projection import (
    EquirectangularProjection,
    ScreenProjection,
    centroid_lat_lon,
    haversine_matrix_m,
    haversine_pairs_m,
    pairwise_haversine_m,
)
from .quadtree import QuadTree, QuadTreeEntry
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
    "QuadTree",
    "QuadTreeEntry",
    "ScreenProjection",
    "centroid",
    "centroid_lat_lon",
    "dbscan",
    "destination_point",
    "equirectangular_m",
    "geohash_decode",
    "geohash_decode_bbox",
    "geohash_encode",
    "geohash_neighbors",
    "haversine_m",
    "haversine_matrix_m",
    "haversine_pairs_m",
    "initial_bearing_deg",
    "midpoint",
    "normalize_lon",
    "pairwise_haversine_m",
    "path_length_m",
    "perpendicular_distance_m",
    "precision_for_cell_size_m",
    "simplify_polyline",
    "validate_lat_lon",
]
