"""Tests for projections and vectorized distances."""

import numpy as np
import pytest

from repro.geo import (
    BoundingBox,
    EquirectangularProjection,
    GeoPoint,
    ScreenProjection,
    centroid,
    centroid_lat_lon,
    haversine_m,
    haversine_pairs_m,
)


class TestEquirectangular:
    def setup_method(self):
        self.proj = EquirectangularProjection(GeoPoint(40.7, -74.0))

    def test_origin_maps_to_zero(self):
        assert self.proj.forward(40.7, -74.0) == (0.0, 0.0)

    def test_north_is_positive_y(self):
        _, y = self.proj.forward(40.8, -74.0)
        assert y > 0

    def test_east_is_positive_x(self):
        x, _ = self.proj.forward(40.7, -73.9)
        assert x > 0

    def test_distance_preserved_locally(self):
        x, y = self.proj.forward(40.71, -74.01)
        planar = (x**2 + y**2) ** 0.5
        true = haversine_m(40.7, -74.0, 40.71, -74.01)
        assert planar == pytest.approx(true, rel=1e-3)


class TestScreenProjection:
    def setup_method(self):
        self.bbox = BoundingBox(40.0, -75.0, 41.0, -74.0)
        self.proj = ScreenProjection(self.bbox, 800, 600, padding_px=10)

    def test_corners(self):
        # North-west corner is top-left (inside padding).
        x, y = self.proj.to_screen(41.0, -75.0)
        assert (x, y) == (10.0, 10.0)
        x, y = self.proj.to_screen(40.0, -74.0)
        assert (x, y) == (790.0, 590.0)

    def test_invalid_dimensions_raise(self):
        with pytest.raises(ValueError):
            ScreenProjection(self.bbox, 0, 100)
        with pytest.raises(ValueError):
            ScreenProjection(self.bbox, 100, 100, padding_px=60)


class TestBitIdenticalArrayForms:
    """``haversine_pairs_m`` and ``centroid_lat_lon`` equal the scalar forms exactly."""

    @staticmethod
    def world(seed, n):
        rng = np.random.default_rng(seed)
        return rng.uniform(-90, 90, n), rng.uniform(-180, 180, n)

    @pytest.mark.parametrize("seed", range(3))
    def test_pairs_equal_haversine_m(self, seed):
        # Over the whole globe: long distances are where numpy's arcsin and
        # squares can round differently from math's.
        (lat1, lon1), (lat2, lon2) = self.world(seed, 20_000), self.world(seed + 100, 20_000)
        expected = [haversine_m(*args) for args in zip(lat1.tolist(), lon1.tolist(),
                                                      lat2.tolist(), lon2.tolist())]
        assert haversine_pairs_m(lat1, lon1, lat2, lon2) == expected

    def test_one_point_to_many(self):
        lat, lon = self.world(7, 2_000)
        expected = [haversine_m(40.7, -74.0, a, b) for a, b in zip(lat.tolist(), lon.tolist())]
        assert haversine_pairs_m(40.7, -74.0, lat, lon) == expected

    def test_edge_pairs(self):
        pairs = [(0.0, 0.0, 0.0, 0.0), (90.0, 0.0, -90.0, 0.0), (0.0, 179.999, 0.0, -179.999),
                 (0.0, 0.0, 0.0, 180.0), (40.7, -74.0, 40.7 + 1e-12, -74.0)]
        lat1, lon1, lat2, lon2 = (np.array(column) for column in zip(*pairs))
        assert haversine_pairs_m(lat1, lon1, lat2, lon2) == [haversine_m(*p) for p in pairs]

    @pytest.mark.parametrize("seed", range(5))
    def test_centroid_equals_centroid(self, seed):
        lat, lon = self.world(seed, 1 + 97 * seed)
        expected = centroid(GeoPoint(a, b) for a, b in zip(lat.tolist(), lon.tolist()))
        assert centroid_lat_lon(lat, lon) == (expected.lat, expected.lon)

    def test_centroid_of_nothing_raises_and_of_antipodes_equals(self):
        with pytest.raises(ValueError, match="empty"):
            centroid_lat_lon(np.zeros(0), np.zeros(0))
        expected = centroid([GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0)])
        assert centroid_lat_lon(np.zeros(2), np.array([0.0, 180.0])) == \
            (expected.lat, expected.lon)
