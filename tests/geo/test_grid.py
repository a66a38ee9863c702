"""Tests for the microcell grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import BoundingBox, MicrocellGrid


@pytest.fixture
def grid():
    return MicrocellGrid(BoundingBox(40.0, -75.0, 41.0, -74.0), cell_size_m=5000.0)


class TestConstruction:
    def test_dimensions(self, grid):
        # ~111 km tall / ~84 km wide at 5 km cells.
        assert grid.n_rows == 22
        assert 15 <= grid.n_cols <= 18
        assert len(grid) == grid.n_rows * grid.n_cols

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            MicrocellGrid(BoundingBox(40, -75, 41, -74), cell_size_m=0)

    def test_cell_sizes_near_target(self, grid):
        assert grid.cell_width_m() == pytest.approx(5000, rel=0.15)
        assert grid.cell_height_m() == pytest.approx(5000, rel=0.15)

    def test_tiny_bbox_single_cell(self):
        grid = MicrocellGrid(BoundingBox(40.0, -74.0, 40.001, -73.999), 5000.0)
        assert grid.n_rows == 1 and grid.n_cols == 1


class TestIndexing:
    def test_corners(self, grid):
        assert grid.cell_index_clamped(40.0, -75.0) == (0, 0)
        assert grid.cell_index_clamped(41.0, -74.0) == (grid.n_rows - 1, grid.n_cols - 1)

    def test_clamped_never_raises(self, grid):
        assert grid.cell_index_clamped(39.0, -80.0) == (0, 0)
        assert grid.cell_index_clamped(50.0, 0.0) == (grid.n_rows - 1, grid.n_cols - 1)

    @given(st.floats(min_value=40.0, max_value=41.0),
           st.floats(min_value=-75.0, max_value=-74.0))
    @settings(max_examples=80)
    def test_point_inside_its_cell(self, lat, lon):
        grid = MicrocellGrid(BoundingBox(40.0, -75.0, 41.0, -74.0), cell_size_m=5000.0)
        cell = grid.cell(grid.cell_index_clamped(lat, lon))
        assert cell.bbox.contains_lat_lon(lat, lon)

    @given(st.lists(st.tuples(st.floats(min_value=39.0, max_value=42.0),
                              st.floats(min_value=-76.0, max_value=-73.0)), min_size=1))
    @settings(max_examples=60)
    def test_array_clamped_indexes_equal_the_scalar_ones(self, points):
        grid = MicrocellGrid(BoundingBox(40.0, -75.0, 41.0, -74.0), cell_size_m=5000.0)
        lats, lons = (np.array(values) for values in zip(*points))
        rows, cols = grid.cell_indexes_clamped(lats, lons)
        assert list(zip(rows.tolist(), cols.tolist())) == [
            grid.cell_index_clamped(lat, lon) for lat, lon in points]

    def test_cell_out_of_range_raises(self, grid):
        with pytest.raises(IndexError):
            grid.cell((grid.n_rows, 0))

    def test_cell_id_roundtrip(self, grid):
        cell = grid.cell((3, 7))
        assert cell.cell_id == "r003c007"
        assert cell.index == (3, 7)


class TestQueries:
    def test_iteration_covers_all(self, grid):
        assert len(list(grid)) == len(grid)
        ids = {c.cell_id for c in grid}
        assert len(ids) == len(grid)
