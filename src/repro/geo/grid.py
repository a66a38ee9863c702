"""Microcell grid — the spatial unit of CrowdWeb's city-scale view.

The paper aggregates crowd members into *microcells* ("any user with a
pattern of visiting a certain microcell (e.g. shops) at a certain selected
time ... will appear in the smart city at the selected time").  We realize a
microcell as one cell of a regular lat/lon grid laid over the study area.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from .bbox import BoundingBox
from .point import GeoPoint

__all__ = ["CellIndex", "Microcell", "MicrocellGrid"]

#: A grid cell address: (row, col), row 0 at the southern edge.
CellIndex = Tuple[int, int]


@dataclass(frozen=True)
class Microcell:
    """One grid cell: its address, geographic bounds, and center."""

    index: CellIndex
    bbox: BoundingBox

    @property
    def center(self) -> GeoPoint:
        return self.bbox.center

    @property
    def cell_id(self) -> str:
        """Stable string id like ``"r12c07"`` used in JSON APIs and reports."""
        row, col = self.index
        return f"r{row:03d}c{col:03d}"


class MicrocellGrid:
    """A regular grid over a bounding box with approximately square cells.

    Parameters
    ----------
    bbox:
        Study area.  :meth:`cell_index_clamped` snaps points outside it to
        the nearest cell.
    cell_size_m:
        Target edge length of a cell in meters.  Rows/cols are chosen so the
        actual cell size is as close as possible while tiling exactly.
    """

    def __init__(self, bbox: BoundingBox, cell_size_m: float = 500.0) -> None:
        if cell_size_m <= 0:
            raise ValueError("cell_size_m must be positive")
        self.bbox = bbox
        self.cell_size_m = float(cell_size_m)
        height_m = max(bbox.height_m(), 1e-9)
        width_m = max(bbox.width_m(), 1e-9)
        self.n_rows = max(1, round(height_m / cell_size_m))
        self.n_cols = max(1, round(width_m / cell_size_m))
        self._dlat = bbox.lat_span / self.n_rows if bbox.lat_span else 0.0
        self._dlon = bbox.lon_span / self.n_cols if bbox.lon_span else 0.0

    # ---------------------------------------------------------------- lookup

    def cell_index_clamped(self, lat: float, lon: float) -> CellIndex:
        """Cell address of the nearest cell — never raises."""
        lat = min(max(lat, self.bbox.min_lat), self.bbox.max_lat)
        lon = min(max(lon, self.bbox.min_lon), self.bbox.max_lon)
        return self._index_unchecked(lat, lon)

    def cell_indexes_clamped(
        self, lat: np.ndarray, lon: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of :meth:`cell_index_clamped` for arrays of points."""
        bbox = self.bbox
        lat = np.minimum(np.maximum(lat, bbox.min_lat), bbox.max_lat)
        lon = np.minimum(np.maximum(lon, bbox.min_lon), bbox.max_lon)
        rows = ((lat - bbox.min_lat) / self._dlat).astype(np.int64) if self._dlat \
            else np.zeros(len(lat), dtype=np.int64)
        cols = ((lon - bbox.min_lon) / self._dlon).astype(np.int64) if self._dlon \
            else np.zeros(len(lon), dtype=np.int64)
        return np.minimum(rows, self.n_rows - 1), np.minimum(cols, self.n_cols - 1)

    def _index_unchecked(self, lat: float, lon: float) -> CellIndex:
        row = int((lat - self.bbox.min_lat) / self._dlat) if self._dlat else 0
        col = int((lon - self.bbox.min_lon) / self._dlon) if self._dlon else 0
        return (min(row, self.n_rows - 1), min(col, self.n_cols - 1))

    def cell(self, index: CellIndex) -> Microcell:
        """The :class:`Microcell` at a grid address."""
        row, col = index
        if not (0 <= row < self.n_rows and 0 <= col < self.n_cols):
            raise IndexError(f"cell index {index} outside {self.n_rows}x{self.n_cols} grid")
        cell_bbox = BoundingBox(
            self.bbox.min_lat + row * self._dlat,
            self.bbox.min_lon + col * self._dlon,
            self.bbox.min_lat + (row + 1) * self._dlat,
            self.bbox.min_lon + (col + 1) * self._dlon,
        )
        return Microcell((row, col), cell_bbox)

    # ------------------------------------------------------------- traversal

    def __len__(self) -> int:
        return self.n_rows * self.n_cols

    def __iter__(self) -> Iterator[Microcell]:
        for row in range(self.n_rows):
            for col in range(self.n_cols):
                yield self.cell((row, col))

    # ------------------------------------------------------------ dimensions

    def cell_width_m(self) -> float:
        return self.bbox.width_m() / self.n_cols

    def cell_height_m(self) -> float:
        return self.bbox.height_m() / self.n_rows

    def __repr__(self) -> str:
        return (
            f"MicrocellGrid({self.n_rows}x{self.n_cols} cells, "
            f"~{self.cell_width_m():.0f}m x {self.cell_height_m():.0f}m)"
        )
