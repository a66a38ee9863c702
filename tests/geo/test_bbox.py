"""Tests for bounding boxes."""

import pytest

from repro.geo import NYC_BBOX, BoundingBox, GeoPoint


@pytest.fixture
def box():
    return BoundingBox(40.0, -74.5, 41.0, -73.5)


class TestConstruction:
    def test_inverted_lat_raises(self):
        with pytest.raises(ValueError):
            BoundingBox(41.0, -74.0, 40.0, -73.0)

    def test_inverted_lon_raises(self):
        with pytest.raises(ValueError):
            BoundingBox(40.0, -73.0, 41.0, -74.0)

    def test_invalid_coords_raise(self):
        with pytest.raises(ValueError):
            BoundingBox(40.0, -74.0, 95.0, -73.0)

    def test_from_points(self):
        pts = [GeoPoint(40.5, -74.2), GeoPoint(40.9, -73.6), GeoPoint(40.7, -74.0)]
        box = BoundingBox.from_points(pts)
        assert box.min_lat == 40.5
        assert box.max_lat == 40.9
        assert box.min_lon == -74.2
        assert box.max_lon == -73.6

    def test_from_points_empty_raises(self):
        with pytest.raises(ValueError):
            BoundingBox.from_points([])


class TestQueries:
    def test_contains(self, box):
        assert box.contains_lat_lon(40.5, -74.0)
        assert box.contains_lat_lon(40.0, -74.5)  # corner inclusive
        assert not box.contains_lat_lon(39.9, -74.0)

    def test_center(self, box):
        assert box.center == GeoPoint(40.5, -74.0)

    def test_dimensions_positive(self, box):
        assert box.width_m() > 0
        assert box.height_m() > 0
        # NYC-latitude box: 1 deg lat ~111 km.
        assert box.height_m() == pytest.approx(111_000, rel=0.01)

    def test_union_covers_both(self, box):
        other = BoundingBox(41.5, -75.0, 42.0, -74.8)
        union = box.union(other)
        for b in (box, other):
            for lat in (b.min_lat, b.max_lat):
                for lon in (b.min_lon, b.max_lon):
                    assert union.contains_lat_lon(lat, lon)

    def test_expand_and_clamp(self, box):
        bigger = box.expand(0.5)
        assert bigger.min_lat == 39.5
        near_pole = BoundingBox(89.5, 0.0, 90.0, 1.0)
        assert near_pole.expand(1.0).max_lat == 90.0

    def test_nyc_constant_sane(self):
        assert NYC_BBOX.contains_lat_lon(40.7580, -73.9855)  # Times Square
