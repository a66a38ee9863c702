"""DBSCAN over geographic points, implemented from scratch.

The paper's related work (ref [10]) clusters GPS fixes with DBSCAN before
feeding an RNN; we implement the same substrate so the prediction baseline in
:mod:`repro.prediction` is self-contained.  Neighborhoods use haversine
distance; the index is a simple cell hash so clustering stays near O(n) for
city-scale data.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .point import GeoPoint, haversine_m

__all__ = ["DBSCANResult", "dbscan", "NOISE"]

#: Cluster label assigned to noise points.
NOISE = -1

_DEG2RAD = math.pi / 180.0
_M_PER_DEG_LAT = 111_320.0


@dataclass(frozen=True)
class DBSCANResult:
    """Labels aligned with the input points; ``NOISE`` (-1) marks outliers."""

    labels: Tuple[int, ...]
    n_clusters: int


class _CellHash:
    """Uniform-grid spatial hash in degrees, sized to eps."""

    def __init__(self, points: Sequence[GeoPoint], eps_m: float) -> None:
        self._points = points
        mean_lat = sum(p.lat for p in points) / len(points)
        self._dlat = eps_m / _M_PER_DEG_LAT
        m_per_deg_lon = _M_PER_DEG_LAT * max(math.cos(mean_lat * _DEG2RAD), 1e-6)
        self._dlon = eps_m / m_per_deg_lon
        self._cells: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        for i, p in enumerate(points):
            self._cells[self._key(p)].append(i)

    def _key(self, p: GeoPoint) -> Tuple[int, int]:
        return (int(math.floor(p.lat / self._dlat)), int(math.floor(p.lon / self._dlon)))

    def neighbors_within(self, idx: int, eps_m: float) -> List[int]:
        """Indexes within eps of point ``idx`` (including itself)."""
        p = self._points[idx]
        krow, kcol = self._key(p)
        hits: List[int] = []
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                for j in self._cells.get((krow + dr, kcol + dc), ()):
                    q = self._points[j]
                    if haversine_m(p.lat, p.lon, q.lat, q.lon) <= eps_m:
                        hits.append(j)
        return hits


def dbscan(points: Sequence[GeoPoint], eps_m: float, min_samples: int) -> DBSCANResult:
    """Density-based clustering of geographic points.

    Parameters
    ----------
    points:
        Input fixes.
    eps_m:
        Neighborhood radius in meters.
    min_samples:
        Minimum neighborhood size (including the point itself) for a core point.
    """
    if eps_m <= 0:
        raise ValueError("eps_m must be positive")
    if min_samples < 1:
        raise ValueError("min_samples must be >= 1")
    n = len(points)
    if n == 0:
        return DBSCANResult(labels=(), n_clusters=0)

    index = _CellHash(points, eps_m)
    labels = [None] * n  # type: List[int | None]
    cluster = 0
    for i in range(n):
        if labels[i] is not None:
            continue
        neighborhood = index.neighbors_within(i, eps_m)
        if len(neighborhood) < min_samples:
            labels[i] = NOISE
            continue
        labels[i] = cluster
        # Expand the cluster with a seed queue (classic DBSCAN).
        queue = [j for j in neighborhood if j != i]
        qi = 0
        while qi < len(queue):
            j = queue[qi]
            qi += 1
            if labels[j] == NOISE:
                labels[j] = cluster  # border point reached from a core
            if labels[j] is not None:
                continue
            labels[j] = cluster
            j_neighborhood = index.neighbors_within(j, eps_m)
            if len(j_neighborhood) >= min_samples:
                queue.extend(k for k in j_neighborhood if labels[k] is None or labels[k] == NOISE)
        cluster += 1

    return DBSCANResult(labels=tuple(label if label is not None else NOISE for label in labels),
                        n_clusters=cluster)
