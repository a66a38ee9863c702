"""Tiled, level-of-detail city view (the MovePattern-style serving scheme).

Instead of one monolithic city SVG, the client asks for
``/api/tiles/<z>/<x>/<y>?window=<i>`` and receives only the aggregated
microcells inside that tile, at the zoom level's granularity.

Coordinate scheme
-----------------
All arithmetic is **integer index math** over the microcell grid, so tile
membership is exact (no floating-point edge ambiguity):

* At zoom ``z`` (``0 .. max_zoom``) microcells are coarsened by
  ``factor(z) = 2 ** (max_zoom - z)``: microcell ``(row, col)`` lands in
  **block** ``(row // f, col // f)``.  At ``z = max_zoom`` a block *is* a
  microcell; at ``z = 0`` blocks merge ``2**max_zoom``-sized squares.
* The block grid (``ceil(n_rows / f) × ceil(n_cols / f)`` blocks) is
  partitioned into ``2**z × 2**z`` tiles by index ranges: tile ``x``
  covers block columns ``[x * tpc, (x + 1) * tpc)`` with
  ``tpc = ceil(b_cols / 2**z)`` (rows/``y`` analogous, counting from the
  grid's south-west origin like the grid itself).

Every block — and therefore every microcell — belongs to **exactly one**
tile per zoom level (block ``(row, col)`` is in tile
``(col // tpc, row // tpr)``), which is what the tile-boundary tests
assert.

Aggregates per ``(window, zoom)`` are computed once from the window's
:class:`~repro.crowd.CrowdSnapshot` and memoized under a lock; the HTTP
layer then caches the rendered tile bytes in the
:class:`~repro.web.cache.ResponseCache`, so steady-state tile requests do
no aggregation at all.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Dict, List, Tuple

from ..crowd import CrowdTimeline
from ..geo import MicrocellGrid
from ..obs import get_observer

__all__ = ["DEFAULT_MAX_ZOOM", "TileIndex"]

#: Zoom levels 0..3: coarsening factors 8, 4, 2, 1.
DEFAULT_MAX_ZOOM = 3

BlockIndex = Tuple[int, int]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class TileIndex:
    """Tile/LOD queries over a crowd timeline (pure data, no sockets)."""

    def __init__(
        self,
        grid: MicrocellGrid,
        timeline: CrowdTimeline,
        max_zoom: int = DEFAULT_MAX_ZOOM,
    ) -> None:
        if max_zoom < 0:
            raise ValueError("max_zoom must be non-negative")
        self.grid = grid
        self.timeline = timeline
        self.max_zoom = max_zoom
        self._lock = threading.Lock()
        self._aggregates: Dict[Tuple[int, int], Dict[BlockIndex, Tuple[int, str]]] = {}

    # -------------------------------------------------------------- geometry

    def factor(self, z: int) -> int:
        """Microcells per block edge at zoom ``z``."""
        if not (0 <= z <= self.max_zoom):
            raise ValueError(
                f"zoom {z} out of range [0, {self.max_zoom}]"
            )
        return 2 ** (self.max_zoom - z)

    def block_dims(self, z: int) -> Tuple[int, int]:
        """(block rows, block cols) of the coarsened grid at zoom ``z``."""
        f = self.factor(z)
        return _ceil_div(self.grid.n_rows, f), _ceil_div(self.grid.n_cols, f)

    def tile_span(self, z: int) -> Tuple[int, int]:
        """(block rows, block cols) covered by one tile at zoom ``z``."""
        b_rows, b_cols = self.block_dims(z)
        n = 2 ** z
        return _ceil_div(b_rows, n), _ceil_div(b_cols, n)

    def block_bbox(self, z: int, block: BlockIndex) -> Tuple[float, float, float, float]:
        """``[min_lat, min_lon, max_lat, max_lon]`` of a block's microcells."""
        f = self.factor(z)
        row, col = block
        r0, c0 = row * f, col * f
        r1 = min(r0 + f, self.grid.n_rows) - 1
        c1 = min(c0 + f, self.grid.n_cols) - 1
        low = self.grid.cell((r0, c0)).bbox
        high = self.grid.cell((r1, c1)).bbox
        return low.min_lat, low.min_lon, high.max_lat, high.max_lon

    # ------------------------------------------------------------ aggregates

    def blocks(self, window: int, z: int) -> Dict[BlockIndex, Tuple[int, str]]:
        """Per-block ``(count, top_label)`` for one window at one zoom.

        Computed once per ``(window, zoom)`` from the snapshot's placements
        and memoized; concurrent first callers may both build, but exactly
        one result is kept (``setdefault``), so callers always agree.
        """
        if not (0 <= window < len(self.timeline)):
            raise ValueError(
                f"window {window} out of range [0, {len(self.timeline)})"
            )
        self.factor(z)  # validates z
        memo_key = (window, z)
        with self._lock:
            cached = self._aggregates.get(memo_key)
        if cached is not None:
            return cached
        built = self._build_blocks(window, z)
        with self._lock:
            return self._aggregates.setdefault(memo_key, built)

    def _build_blocks(self, window: int, z: int) -> Dict[BlockIndex, Tuple[int, str]]:
        f = self.factor(z)
        counts: Dict[BlockIndex, int] = {}
        labels: Dict[BlockIndex, Counter] = {}
        for placement in self.timeline[window].placements:
            row, col = placement.cell
            block = (row // f, col // f)
            counts[block] = counts.get(block, 0) + 1
            bucket = labels.get(block)
            if bucket is None:
                bucket = labels[block] = Counter()
            bucket[placement.label] += 1
        aggregated: Dict[BlockIndex, Tuple[int, str]] = {}
        for block, count in counts.items():
            # Deterministic top label: highest count, ties broken by name.
            top = min(labels[block].items(), key=lambda kv: (-kv[1], kv[0]))[0]
            aggregated[block] = (count, top)
        return aggregated

    def invalidate(self) -> None:
        """Drop the memoized aggregates (paired with a cache refresh)."""
        with self._lock:
            self._aggregates.clear()

    # ----------------------------------------------------------------- tiles

    def tile(self, z: int, x: int, y: int, window: int) -> Dict:
        """The JSON payload of one tile: its bbox and aggregated cells.

        ``cells`` lists only the tile's *occupied* blocks, sorted by
        ``(row, col)`` so the payload is deterministic and diffable.
        """
        self.factor(z)  # validates z before 2 ** z is built from it
        n = 2 ** z
        if not (0 <= x < n and 0 <= y < n):
            raise ValueError(
                f"tile ({x}, {y}) out of range [0, {n}) at zoom {z}"
            )
        tpr, tpc = self.tile_span(z)
        b_rows, b_cols = self.block_dims(z)
        row_lo, row_hi = y * tpr, min((y + 1) * tpr, b_rows)
        col_lo, col_hi = x * tpc, min((x + 1) * tpc, b_cols)

        observer = get_observer()
        start = time.perf_counter()
        blocks = self.blocks(window, z)
        cells: List[Dict] = []
        for block in sorted(blocks):
            row, col = block
            if row_lo <= row < row_hi and col_lo <= col < col_hi:
                count, top_label = blocks[block]
                cells.append(
                    {
                        "row": row,
                        "col": col,
                        "count": count,
                        "top_label": top_label,
                        "bbox": list(self.block_bbox(z, block)),
                    }
                )
        observer.observe(
            "repro_web_tile_render_latency_s", time.perf_counter() - start
        )

        payload: Dict = {
            "z": z,
            "x": x,
            "y": y,
            "window": window,
            "window_label": self.timeline[window].window.label,
            "cell_factor": self.factor(z),
            "n_users": sum(cell["count"] for cell in cells),
            "cells": cells,
        }
        if row_lo < row_hi and col_lo < col_hi:
            low = self.block_bbox(z, (row_lo, col_lo))
            high = self.block_bbox(z, (row_hi - 1, col_hi - 1))
            payload["bbox"] = [low[0], low[1], high[2], high[3]]
        else:
            payload["bbox"] = None  # tile beyond the block grid: valid, empty
        return payload

    def scheme(self) -> Dict:
        """The tile-scheme description served at ``/api/tiles``."""
        bbox = self.grid.bbox
        return {
            "max_zoom": self.max_zoom,
            "n_rows": self.grid.n_rows,
            "n_cols": self.grid.n_cols,
            "cell_size_m": self.grid.cell_size_m,
            "bbox": [bbox.min_lat, bbox.min_lon, bbox.max_lat, bbox.max_lon],
            "n_windows": len(self.timeline),
            "windows": [snap.window.label for snap in self.timeline],
            "zooms": [
                {
                    "z": z,
                    "cell_factor": self.factor(z),
                    "n_tiles": 2 ** z,
                    "block_rows": self.block_dims(z)[0],
                    "block_cols": self.block_dims(z)[1],
                }
                for z in range(self.max_zoom + 1)
            ],
        }
