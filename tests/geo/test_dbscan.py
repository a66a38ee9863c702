"""Tests for the from-scratch geographic DBSCAN."""

import numpy as np
import pytest

from repro.geo import NOISE, GeoPoint, dbscan


def blob(center: GeoPoint, n: int, sigma_m: float, seed: int):
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(n):
        dlat = rng.normal(0, sigma_m) / 111_320.0
        dlon = rng.normal(0, sigma_m) / 85_000.0
        pts.append(GeoPoint(center.lat + dlat, center.lon + dlon))
    return pts


class TestBasics:
    def test_empty(self):
        result = dbscan([], eps_m=100, min_samples=3)
        assert result.labels == ()
        assert result.n_clusters == 0

    def test_invalid_params(self):
        p = [GeoPoint(40, -74)]
        with pytest.raises(ValueError):
            dbscan(p, eps_m=0, min_samples=3)
        with pytest.raises(ValueError):
            dbscan(p, eps_m=10, min_samples=0)

    def test_single_point_is_noise(self):
        result = dbscan([GeoPoint(40, -74)], eps_m=100, min_samples=2)
        assert result.labels == (NOISE,)
        assert result.labels.count(NOISE) == 1


class TestClustering:
    def test_two_well_separated_blobs(self):
        a = blob(GeoPoint(40.70, -74.00), 30, 50.0, seed=1)
        b = blob(GeoPoint(40.80, -73.90), 30, 50.0, seed=2)
        result = dbscan(a + b, eps_m=300, min_samples=4)
        assert result.n_clusters == 2
        labels_a = {result.labels[i] for i in range(30)}
        labels_b = {result.labels[i] for i in range(30, 60)}
        assert labels_a.isdisjoint(labels_b)
        # Every point in a dense blob should be clustered, not noise.
        assert result.labels.count(NOISE) == 0

    def test_isolated_outlier_is_noise(self):
        pts = blob(GeoPoint(40.70, -74.00), 20, 40.0, seed=3)
        pts.append(GeoPoint(40.90, -73.70))
        result = dbscan(pts, eps_m=300, min_samples=4)
        assert result.labels[-1] == NOISE

    def test_eps_merges_clusters(self):
        a = blob(GeoPoint(40.700, -74.000), 20, 30.0, seed=4)
        b = blob(GeoPoint(40.703, -74.000), 20, 30.0, seed=5)  # ~330 m apart
        tight = dbscan(a + b, eps_m=120, min_samples=4)
        loose = dbscan(a + b, eps_m=1500, min_samples=4)
        assert loose.n_clusters == 1
        assert tight.n_clusters >= loose.n_clusters

    def test_min_samples_increase_makes_more_noise(self):
        pts = blob(GeoPoint(40.70, -74.00), 15, 80.0, seed=6)
        lenient = dbscan(pts, eps_m=150, min_samples=2)
        strict = dbscan(pts, eps_m=150, min_samples=14)
        assert strict.labels.count(NOISE) >= lenient.labels.count(NOISE)

    def test_labels_are_contiguous_from_zero(self):
        a = blob(GeoPoint(40.70, -74.00), 25, 40.0, seed=7)
        b = blob(GeoPoint(40.80, -73.90), 25, 40.0, seed=8)
        result = dbscan(a + b, eps_m=300, min_samples=3)
        found = {label for label in result.labels if label != NOISE}
        assert found == set(range(result.n_clusters))

    def test_deterministic(self):
        pts = blob(GeoPoint(40.70, -74.00), 50, 100.0, seed=10)
        r1 = dbscan(pts, eps_m=200, min_samples=4)
        r2 = dbscan(pts, eps_m=200, min_samples=4)
        assert r1.labels == r2.labels
