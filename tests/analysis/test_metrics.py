"""Tests for the mobility-analytics metrics."""

import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    UserMobilityMetrics,
    jump_lengths_m,
    lz_entropy_estimate,
    max_predictability,
    radius_of_gyration_m,
    random_entropy,
    regularity_by_hour,
    uncorrelated_entropy,
    user_mobility_metrics,
    visitation_frequencies,
)
from repro.data import CheckIn, CheckInDataset
from repro.geo import GeoPoint

UTC = timezone.utc


class TestRadiusOfGyration:
    def test_single_point_zero(self):
        # Centroid round-trips through spherical coordinates, so allow
        # sub-millimeter floating error.
        assert radius_of_gyration_m([GeoPoint(40.7, -74.0)]) == pytest.approx(0.0, abs=1e-3)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            radius_of_gyration_m([])

    def test_two_points_half_distance(self):
        a, b = GeoPoint(40.70, -74.00), GeoPoint(40.80, -74.00)
        rg = radius_of_gyration_m([a, b])
        assert rg == pytest.approx(a.distance_to(b) / 2, rel=1e-3)

    def test_tight_cluster_small(self):
        pts = [GeoPoint(40.7 + i * 1e-5, -74.0) for i in range(10)]
        assert radius_of_gyration_m(pts) < 50


class TestJumps:
    def test_lengths(self):
        pts = [GeoPoint(40.7, -74.0), GeoPoint(40.7, -74.0), GeoPoint(40.8, -74.0)]
        jumps = jump_lengths_m(pts)
        assert len(jumps) == 2
        assert jumps[0] == 0.0
        assert jumps[1] > 10_000


class TestVisitation:
    def test_zipf_profile(self):
        freqs = visitation_frequencies(["home"] * 6 + ["work"] * 3 + ["gym"])
        assert freqs[0] == ("home", 0.6)
        assert freqs[1] == ("work", 0.3)
        assert sum(share for _, share in freqs) == pytest.approx(1.0)

    def test_empty(self):
        assert visitation_frequencies([]) == []


class TestEntropies:
    def test_random_entropy(self):
        assert random_entropy(1) == 0.0
        assert random_entropy(8) == 3.0
        with pytest.raises(ValueError):
            random_entropy(0)

    def test_uncorrelated_uniform(self):
        assert uncorrelated_entropy(["a", "b", "c", "d"]) == pytest.approx(2.0)

    def test_uncorrelated_deterministic(self):
        assert uncorrelated_entropy(["a"] * 10) == 0.0

    def test_uncorrelated_bounded_by_random(self):
        labels = ["a"] * 5 + ["b"] * 3 + ["c"] * 2
        assert uncorrelated_entropy(labels) <= random_entropy(3) + 1e-9

    def test_uncorrelated_empty_raises(self):
        with pytest.raises(ValueError):
            uncorrelated_entropy([])

    def test_lz_low_for_periodic(self):
        periodic = ["a", "b"] * 30
        noisy = [str(i % 17 * 7 % 13) for i in range(60)]
        assert lz_entropy_estimate(periodic) < lz_entropy_estimate(noisy)

    def test_lz_short_raises(self):
        with pytest.raises(ValueError):
            lz_entropy_estimate(["a"])

    @given(st.one_of(
        st.lists(st.sampled_from("ab"), min_size=2, max_size=400),
        st.lists(st.sampled_from("abcde"), min_size=2, max_size=400),
        st.lists(st.integers(0, 300).map(str), min_size=2, max_size=400),
    ))
    @settings(max_examples=120, deadline=None)
    def test_lz_equals_the_cubic_oracle(self, sequence):
        assert lz_entropy_estimate(sequence) == oracle_lz_entropy_estimate(sequence)

    @pytest.mark.parametrize("sequence", [
        ["a", "b"], ["a", "a"], ["a"] * 400, list("ab" * 200),
        [str(i) for i in range(400)], list("abcabdabcabdabce" * 25),
    ])
    def test_lz_extremes_equal_the_cubic_oracle(self, sequence):
        assert lz_entropy_estimate(sequence) == oracle_lz_entropy_estimate(sequence)


def oracle_lz_entropy_estimate(sequence):
    """The cubic scan the substring search replaced: Λ_i by slice compares."""
    n = len(sequence)
    seq = list(sequence)
    lambdas = 0
    for i in range(n):
        k = 1
        while i + k <= n:
            needle = seq[i:i + k]
            if not any(seq[j:j + k] == needle for j in range(0, i - k + 1)):
                break
            k += 1
        lambdas += min(k, n - i + 1)
    return (n / lambdas) * math.log2(n)


def oracle_user_mobility_metrics(dataset, user_id):
    """The scalar path the columns replaced: one ``GeoPoint`` per check-in,
    ``centroid`` and ``haversine_m`` through :func:`radius_of_gyration_m` and
    :func:`jump_lengths_m`, and venue-id strings for the entropies."""
    records = dataset.for_user(user_id)
    if len(records) < 2:
        raise ValueError(f"user {user_id!r} needs at least two check-ins")
    points = [GeoPoint(c.lat, c.lon) for c in records]
    venues = [c.venue_id for c in records]
    jumps = jump_lengths_m(points)
    n_venues = len(set(venues))
    return UserMobilityMetrics(
        user_id=user_id,
        n_checkins=len(records),
        n_distinct_venues=n_venues,
        radius_of_gyration_m=radius_of_gyration_m(points),
        median_jump_m=float(np.median(jumps)),
        top_location_share=visitation_frequencies(venues)[0][1],
        s_random=random_entropy(n_venues),
        s_uncorrelated=uncorrelated_entropy(venues),
        s_estimated=lz_entropy_estimate(venues),
    )


class TestColumnsEqualTheScalarOracle:
    """``user_mobility_metrics`` from the columns equals the scalar path, bit for bit."""

    def test_every_user_of_the_small_city(self, small_ds):
        for user_id in small_ds.user_ids():
            assert user_mobility_metrics(small_ds, user_id) == \
                oracle_user_mobility_metrics(small_ds, user_id)

    def test_far_apart_and_repeated_points(self):
        # Antimeridian, poles and repeats: jumps of zero, of half the globe,
        # and a centroid far from every point.
        spots = [(0.0, 179.9), (0.0, -179.9), (89.9, 10.0), (-89.9, -170.0), (40.7, -74.0),
                 (40.7, -74.0), (-33.9, 151.2), (0.0, 0.0)]
        ds = _user(spots * 3)
        assert user_mobility_metrics(ds, "u") == oracle_user_mobility_metrics(ds, "u")

    @pytest.mark.parametrize("seed", range(4))
    def test_random_points_over_the_globe(self, seed):
        # Long jumps put arcsin and the squares where numpy's own kernels
        # can round differently from ``math``'s.
        rng = np.random.default_rng(seed)
        spots = list(zip(rng.uniform(-90, 90, 300).tolist(), rng.uniform(-180, 180, 300).tolist()))
        ds = _user(spots)
        assert user_mobility_metrics(ds, "u") == oracle_user_mobility_metrics(ds, "u")

    def test_served_bodies_equal_the_oracle_render(self, pipeline_result, monkeypatch):
        from repro.web import CrowdWebApp

        paths = [f"/api/metrics/{uid}" for uid in sorted(pipeline_result.profiles)]
        served = [CrowdWebApp(pipeline_result).handle("GET", p)[2] for p in paths]
        monkeypatch.setattr("repro.web.api.user_mobility_metrics", oracle_user_mobility_metrics)
        oracle_app = CrowdWebApp(pipeline_result)
        assert served == [oracle_app.handle("GET", p)[2] for p in paths]


def _user(spots):
    start = datetime(2012, 4, 1, tzinfo=UTC)
    return CheckInDataset([
        CheckIn(user_id="u", venue_id=f"v{lat}:{lon}", category_id="c", category_name="Cafe",
                lat=lat, lon=lon, tz_offset_min=0, timestamp=start + timedelta(hours=i))
        for i, (lat, lon) in enumerate(spots)
    ])


class TestServedMetrics:
    def test_bodies_equal_the_oracle_render(self, pipeline_result, monkeypatch):
        from repro.web import CrowdWebApp

        paths = [f"/api/metrics/{uid}" for uid in sorted(pipeline_result.profiles)]
        served = [CrowdWebApp(pipeline_result).handle("GET", p)[2] for p in paths]
        monkeypatch.setattr("repro.analysis.metrics.lz_entropy_estimate",
                            oracle_lz_entropy_estimate)
        oracle_app = CrowdWebApp(pipeline_result)
        assert served == [oracle_app.handle("GET", p)[2] for p in paths]

    def test_each_refresh_renders_once_more(self, pipeline_result):
        from repro.obs import observed
        from repro.web import CrowdWebApp

        app = CrowdWebApp(pipeline_result)
        path = f"/api/metrics/{sorted(pipeline_result.profiles)[0]}"
        with observed() as o:
            for expected in (1, 2, 3):
                assert app.handle("GET", path)[0] == 200
                app.handle("GET", path)
                assert o.registry.counter("repro_web_renders_total") == expected
                app.handle("POST", "/api/refresh")


class TestPredictability:
    def test_zero_entropy_fully_predictable(self):
        assert max_predictability(0.0, 10) == 1.0

    def test_single_location(self):
        assert max_predictability(1.0, 1) == 1.0

    def test_saturated_entropy_uniform_bound(self):
        assert max_predictability(random_entropy(8), 8) == pytest.approx(1 / 8, abs=1e-6)

    def test_song_regime(self):
        """Song et al.: S≈0.8 bits over N≈50 locations → Π_max ≈ 0.93."""
        pi = max_predictability(0.8, 50)
        assert 0.88 <= pi <= 0.96

    def test_monotone_in_entropy(self):
        assert max_predictability(0.5, 20) > max_predictability(2.0, 20)

    def test_invalid(self):
        with pytest.raises(ValueError):
            max_predictability(1.0, 0)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 20, 50, 137, 1000, 10**6])
    def test_early_stop_equals_the_80_step_bisection(self, n):
        saturated = fano_80(n, None)
        grid = [0.0, 1e-300, 1e-12, 1e-6, 0.01, 0.1, 0.5, 0.8, 1.0, 1.5, 2.0, 3.3, 5.0,
                saturated * (1 - 1e-12), saturated, saturated + 1.0]
        grid += [saturated * k / 37 for k in range(1, 37)]
        for entropy in grid:
            assert max_predictability(entropy, n) == fano_80(n, entropy), entropy


def fano_80(n_locations, entropy_bits):
    """The bisection before its early stop: always 80 halvings.  With
    ``entropy_bits=None`` it returns the entropy at which Π saturates."""
    def fano(p):
        h = 0.0
        for q in (p, 1.0 - p):
            if 0.0 < q < 1.0:
                h -= q * math.log2(q)
        return h + (1.0 - p) * math.log2(n_locations - 1)

    lo, hi = 1.0 / n_locations, 1.0 - 1e-12
    if entropy_bits is None:
        return fano(lo)
    if entropy_bits <= 0:
        return 1.0
    if entropy_bits >= fano(lo):
        return lo
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if fano(mid) > entropy_bits:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


class TestUserMetrics:
    def make_dataset(self):
        records = []
        venues = ["home", "work", "home", "thai", "home", "work"] * 5
        for i, venue in enumerate(venues):
            records.append(CheckIn(
                user_id="u", venue_id=venue, category_id="", category_name=venue,
                lat=40.7 + hash(venue) % 10 * 0.001, lon=-74.0, tz_offset_min=0,
                timestamp=datetime(2012, 4, 1, tzinfo=UTC) + timedelta(hours=3 * i),
            ))
        return CheckInDataset(records)

    def test_bundle(self):
        metrics = user_mobility_metrics(self.make_dataset(), "u")
        assert metrics.n_checkins == 30
        assert metrics.n_distinct_venues == 3
        assert metrics.top_location_share == pytest.approx(0.5)
        assert metrics.s_uncorrelated <= metrics.s_random
        assert 0.0 < metrics.predictability_bound <= 1.0

    def test_regular_user_highly_predictable(self):
        metrics = user_mobility_metrics(self.make_dataset(), "u")
        # A strictly periodic routine should be near the top of the bound.
        assert metrics.predictability_bound > 0.6

    def test_too_few_records_raises(self):
        ds = self.make_dataset()
        with pytest.raises(ValueError):
            user_mobility_metrics(ds, "ghost")


class TestRegularity:
    def test_by_hour(self):
        records = []
        for day in range(1, 11):
            # Always home at 8, alternating lunch venues at 12.
            records.append(CheckIn(
                user_id="u", venue_id="home", category_id="", category_name="Home",
                lat=40.7, lon=-74.0, tz_offset_min=0,
                timestamp=datetime(2012, 4, day, 8, 0, tzinfo=UTC)))
            records.append(CheckIn(
                user_id="u", venue_id=f"thai-{day % 2}", category_id="",
                category_name="Thai", lat=40.71, lon=-74.0, tz_offset_min=0,
                timestamp=datetime(2012, 4, day, 12, 0, tzinfo=UTC)))
        ds = CheckInDataset(records)
        regularity = regularity_by_hour(ds, "u")
        assert regularity[8] == 1.0   # always at the top venue at 8
        assert regularity[12] == 0.0  # never at the top venue at noon

    def test_unknown_user(self, small_ds):
        assert regularity_by_hour(small_ds, "ghost") == {}
