"""Tests for geographic points and great-circle geometry."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import (
    EARTH_RADIUS_M,
    GeoPoint,
    centroid,
    destination_point,
    equirectangular_m,
    haversine_m,
    normalize_lon,
    validate_lat_lon,
)

lat_strategy = st.floats(min_value=-89.0, max_value=89.0)
lon_strategy = st.floats(min_value=-179.0, max_value=179.0)


class TestValidation:
    def test_valid_extremes(self):
        validate_lat_lon(90.0, 180.0)
        validate_lat_lon(-90.0, -180.0)

    @pytest.mark.parametrize("lat,lon", [(91, 0), (-91, 0), (0, 181), (0, -181)])
    def test_out_of_range_raises(self, lat, lon):
        with pytest.raises(ValueError):
            validate_lat_lon(lat, lon)

    def test_geopoint_validates_on_construction(self):
        with pytest.raises(ValueError):
            GeoPoint(100.0, 0.0)

    def test_geopoint_is_hashable_and_ordered(self):
        a = GeoPoint(1.0, 2.0)
        b = GeoPoint(1.0, 3.0)
        assert a < b
        assert len({a, b, GeoPoint(1.0, 2.0)}) == 2


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_m(40.0, -74.0, 40.0, -74.0) == 0.0

    def test_known_distance_nyc_la(self):
        # JFK to LAX is about 3,974 km great-circle.
        d = haversine_m(40.6413, -73.7781, 33.9416, -118.4085)
        assert d == pytest.approx(3_974_000, rel=0.01)

    def test_one_degree_latitude(self):
        d = haversine_m(0.0, 0.0, 1.0, 0.0)
        assert d == pytest.approx(111_195, rel=0.001)

    def test_antipodal_is_half_circumference(self):
        d = haversine_m(0.0, 0.0, 0.0, 180.0)
        assert d == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-6)

    @given(lat_strategy, lon_strategy, lat_strategy, lon_strategy)
    @settings(max_examples=60)
    def test_symmetry(self, lat1, lon1, lat2, lon2):
        assert haversine_m(lat1, lon1, lat2, lon2) == pytest.approx(
            haversine_m(lat2, lon2, lat1, lon1), abs=1e-6
        )

    @given(lat_strategy, lon_strategy, lat_strategy, lon_strategy)
    @settings(max_examples=60)
    def test_non_negative_and_bounded(self, lat1, lon1, lat2, lon2):
        d = haversine_m(lat1, lon1, lat2, lon2)
        assert 0.0 <= d <= math.pi * EARTH_RADIUS_M + 1.0

    def test_equirectangular_close_at_city_scale(self):
        # Within NYC the fast approximation should agree to <0.1%.
        exact = haversine_m(40.70, -74.00, 40.80, -73.90)
        approx = equirectangular_m(40.70, -74.00, 40.80, -73.90)
        assert approx == pytest.approx(exact, rel=1e-3)


class TestBearingAndDestination:
    def test_bearing_due_north(self):
        lat, lon = destination_point(0.0, 0.0, 0.0, 111_000.0)
        assert lat > 0.99 and lon == pytest.approx(0.0, abs=1e-9)

    def test_bearing_due_east(self):
        lat, lon = destination_point(0.0, 0.0, 90.0, 111_000.0)
        assert lat == pytest.approx(0.0, abs=1e-9) and lon > 0.99

    @given(lat_strategy, lon_strategy,
           st.floats(min_value=0.0, max_value=359.9),
           st.floats(min_value=1.0, max_value=100_000.0))
    @settings(max_examples=60)
    def test_destination_distance_roundtrip(self, lat, lon, bearing, distance):
        dest_lat, dest_lon = destination_point(lat, lon, bearing, distance)
        back = haversine_m(lat, lon, dest_lat, dest_lon)
        assert back == pytest.approx(distance, rel=1e-6, abs=1e-3)

    def test_offset_method(self):
        p = GeoPoint(40.0, -74.0)
        q = p.offset(0.0, 1000.0)
        assert q.lat > p.lat
        assert p.distance_to(q) == pytest.approx(1000.0, rel=1e-6)


class TestMidpointCentroid:
    def test_centroid_of_single_point(self):
        p = GeoPoint(40.0, -74.0)
        c = centroid([p])
        assert c.lat == pytest.approx(40.0, abs=1e-9)
        assert c.lon == pytest.approx(-74.0, abs=1e-9)

    def test_centroid_empty_raises(self):
        with pytest.raises(ValueError):
            centroid([])

    def test_centroid_symmetric_square(self):
        pts = [GeoPoint(40.0, -74.0), GeoPoint(40.2, -74.0),
               GeoPoint(40.0, -73.8), GeoPoint(40.2, -73.8)]
        c = centroid(pts)
        assert c.lat == pytest.approx(40.1, abs=1e-3)
        assert c.lon == pytest.approx(-73.9, abs=1e-3)


class TestNormalizeLon:
    @pytest.mark.parametrize("raw,expected", [
        (0.0, 0.0), (180.0, -180.0), (-180.0, -180.0),
        (190.0, -170.0), (-190.0, 170.0), (360.0, 0.0), (540.0, -180.0),
    ])
    def test_wrapping(self, raw, expected):
        assert normalize_lon(raw) == pytest.approx(expected, abs=1e-9)

    @given(st.floats(min_value=-1000.0, max_value=1000.0))
    @settings(max_examples=50)
    def test_always_in_range(self, lon):
        wrapped = normalize_lon(lon)
        assert -180.0 <= wrapped < 180.0
