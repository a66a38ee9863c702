"""Tests for the tile/LOD index: exact partitioning, coarsening, payloads."""

import pytest

from repro.web import DEFAULT_MAX_ZOOM, TileIndex


@pytest.fixture(scope="module")
def tiles(pipeline_result):
    return TileIndex(pipeline_result.grid, pipeline_result.timeline)


class TestGeometry:
    def test_factor_halves_per_zoom(self, tiles):
        assert tiles.max_zoom == DEFAULT_MAX_ZOOM
        factors = [tiles.factor(z) for z in range(tiles.max_zoom + 1)]
        assert factors[-1] == 1  # max zoom: a block is a microcell
        for coarse, fine in zip(factors, factors[1:]):
            assert coarse == 2 * fine

    def test_factor_rejects_out_of_range_zoom(self, tiles):
        with pytest.raises(ValueError):
            tiles.factor(-1)
        with pytest.raises(ValueError):
            tiles.factor(tiles.max_zoom + 1)

    def test_block_dims_cover_the_grid(self, tiles):
        for z in range(tiles.max_zoom + 1):
            b_rows, b_cols = tiles.block_dims(z)
            f = tiles.factor(z)
            assert b_rows * f >= tiles.grid.n_rows > (b_rows - 1) * f
            assert b_cols * f >= tiles.grid.n_cols > (b_cols - 1) * f

    def test_every_block_lands_in_exactly_one_tile(self, tiles):
        """The partition property the tile-boundary HTTP test relies on."""
        for z in range(tiles.max_zoom + 1):
            b_rows, b_cols = tiles.block_dims(z)
            tpr, tpc = tiles.tile_span(z)
            n = 2 ** z
            # Tile (x, y) serves block rows [y*tpr, (y+1)*tpr) and block
            # cols [x*tpc, (x+1)*tpc), clipped to the block grid.
            owners = {}
            for x in range(n):
                for y in range(n):
                    for row in range(y * tpr, min((y + 1) * tpr, b_rows)):
                        for col in range(x * tpc, min((x + 1) * tpc, b_cols)):
                            assert (row, col) not in owners
                            owners[(row, col)] = (x, y)
            assert len(owners) == b_rows * b_cols

    def test_block_bbox_nested_in_grid_bbox(self, tiles):
        grid_bbox = tiles.grid.bbox
        for z in (0, tiles.max_zoom):
            b_rows, b_cols = tiles.block_dims(z)
            min_lat, min_lon, max_lat, max_lon = tiles.block_bbox(
                z, (b_rows - 1, b_cols - 1)
            )
            assert min_lat < max_lat and min_lon < max_lon
            assert min_lat >= grid_bbox.min_lat - 1e-9
            assert max_lon <= grid_bbox.max_lon + 1e-9


class TestAggregates:
    def test_blocks_preserve_user_counts(self, tiles, pipeline_result):
        for window, snapshot in enumerate(pipeline_result.timeline):
            for z in range(tiles.max_zoom + 1):
                blocks = tiles.blocks(window, z)
                assert sum(count for count, _ in blocks.values()) == snapshot.n_users

    def test_max_zoom_blocks_are_microcells(self, tiles, pipeline_result):
        window = max(
            range(len(pipeline_result.timeline)),
            key=lambda i: pipeline_result.timeline[i].n_users,
        )
        blocks = tiles.blocks(window, tiles.max_zoom)
        cells = {p.cell for p in pipeline_result.timeline[window].placements}
        assert set(blocks) == cells

    def test_blocks_memoized_and_invalidated(self, tiles):
        first = tiles.blocks(0, 1)
        assert tiles.blocks(0, 1) is first
        tiles.invalidate()
        assert tiles.blocks(0, 1) is not first
        assert tiles.blocks(0, 1) == first

    def test_window_out_of_range(self, tiles, pipeline_result):
        with pytest.raises(ValueError):
            tiles.blocks(len(pipeline_result.timeline), 0)
        with pytest.raises(ValueError):
            tiles.blocks(-1, 0)


class TestTilePayloads:
    def _busiest_window(self, pipeline_result) -> int:
        return max(
            range(len(pipeline_result.timeline)),
            key=lambda i: pipeline_result.timeline[i].n_users,
        )

    def test_tiles_partition_the_crowd(self, tiles, pipeline_result):
        """Every user appears in exactly one tile at every zoom level."""
        window = self._busiest_window(pipeline_result)
        expected = pipeline_result.timeline[window].n_users
        for z in range(tiles.max_zoom + 1):
            n = 2 ** z
            total = 0
            cells_seen = set()
            for x in range(n):
                for y in range(n):
                    payload = tiles.tile(z, x, y, window)
                    total += payload["n_users"]
                    for cell in payload["cells"]:
                        key = (cell["row"], cell["col"])
                        assert key not in cells_seen, (
                            f"block {key} served by more than one tile at z={z}"
                        )
                        cells_seen.add(key)
            assert total == expected

    def test_payload_shape(self, tiles, pipeline_result):
        window = self._busiest_window(pipeline_result)
        payload = tiles.tile(0, 0, 0, window)
        assert payload["z"] == 0 and payload["x"] == 0 and payload["y"] == 0
        assert payload["window"] == window
        assert payload["window_label"] == (
            pipeline_result.timeline[window].window.label
        )
        assert payload["cell_factor"] == tiles.factor(0)
        for cell in payload["cells"]:
            assert set(cell) == {"row", "col", "count", "top_label", "bbox"}
            assert cell["count"] > 0
            assert len(cell["bbox"]) == 4

    def test_payload_deterministic(self, tiles, pipeline_result):
        window = self._busiest_window(pipeline_result)
        assert tiles.tile(1, 0, 0, window) == tiles.tile(1, 0, 0, window)

    def test_tile_out_of_range(self, tiles):
        with pytest.raises(ValueError):
            tiles.tile(1, 2, 0, 0)
        with pytest.raises(ValueError):
            tiles.tile(1, 0, -1, 0)

    def test_zoom_is_validated_before_it_sizes_the_tile_grid(self, tiles):
        """``/api/tiles/<z>/...`` takes any integer ``z`` from the path.

        Building ``2 ** z`` first would make a 20-digit zoom allocate until
        the process runs out of memory; the range check must come first.
        """
        class Zoom(int):
            def __rpow__(self, base):
                raise AssertionError("2 ** z built from an unchecked zoom")

        with pytest.raises(ValueError, match="out of range"):
            tiles.tile(Zoom(10 ** 19), 0, 0, 0)

    def test_scheme_payload(self, tiles, pipeline_result):
        scheme = tiles.scheme()
        assert scheme["max_zoom"] == tiles.max_zoom
        assert scheme["n_windows"] == len(pipeline_result.timeline)
        assert len(scheme["zooms"]) == tiles.max_zoom + 1
        assert scheme["zooms"][-1]["cell_factor"] == 1
        assert len(scheme["bbox"]) == 4
