"""Tests for the synthetic GTSM generator (the dataset substitution)."""

import hashlib
from bisect import bisect_right
from collections import Counter
from dataclasses import replace
from datetime import date

import pytest

from repro.data import (SMALL_CONFIG, SynthConfig, Venue, dataset_stats, generate,
                        write_foursquare_tsv)
from repro.data.synth import CityEvent, build_agents, build_city
from repro.data.synth.city import _Pool, _nearest
from repro.data.synth.generator import _preference_cdf, _preference_weights, _RawReader
from repro.geo import GeoPoint, equirectangular_m
from repro.taxonomy import build_default_taxonomy

import numpy as np


class TestConfig:
    def test_defaults_valid(self):
        SynthConfig()

    @pytest.mark.parametrize("kwargs", [
        {"n_users": 0},
        {"exploration_prob": 1.5},
        {"checkin_rate_mean": 0.0},
        {"checkin_rate_clamp": (0.5, 0.2)},
        {"worker_fraction": 0.9, "student_fraction": 0.3},
        {"power_user_fraction": -0.1},
        {"monthly_seasonality": {1: 1.0}},
    ])
    def test_invalid_configs_raise(self, kwargs):
        with pytest.raises(ValueError):
            SynthConfig(**kwargs)

    @pytest.mark.parametrize("minutes", [1440, -1440, 40_000])
    def test_a_tz_offset_of_a_day_or_more_raises(self, minutes):
        with pytest.raises(ValueError, match="tz offset"):
            generate(replace(SMALL_CONFIG, n_users=2, tz_offset_min=minutes))

    def test_end_before_start_raises(self):
        from datetime import date
        with pytest.raises(ValueError):
            SynthConfig(start_date=date(2012, 6, 1), end_date=date(2012, 4, 1))

    def test_n_days(self):
        assert SMALL_CONFIG.n_days == 76


class TestCity:
    @pytest.fixture(scope="class")
    def city(self):
        rng = np.random.default_rng(3)
        return build_city(SMALL_CONFIG.bbox, 6, 500, 800.0, rng,
                          build_default_taxonomy())

    def test_venue_count(self, city):
        assert len(city.venues) >= 450  # rounding of dirichlet shares

    def test_all_venues_inside_bbox(self, city):
        for venue in city.venues:
            assert city.bbox.contains_lat_lon(venue.location.lat, venue.location.lon)

    def test_venue_categories_resolvable(self, city):
        for venue in city.venues[:50]:
            node = city.taxonomy.get(venue.category_id)
            assert node.name == venue.category_name
            assert node.is_leaf

    def test_lookup_by_root_and_leaf(self, city):
        eateries = city.venues_of_root("Eatery")
        assert eateries
        thai = city.venues_of_leaf("Thai Restaurant")
        assert all(v.category_name == "Thai Restaurant" for v in thai)

    def test_nearest_of_root_sorted(self, city):
        anchor = city.neighborhoods[0].center
        nearest = city.nearest_of_root(anchor, "Eatery", k=5)
        distances = [anchor.fast_distance_to(v.location) for v in nearest]
        assert distances == sorted(distances)

    def test_unknown_category_empty(self, city):
        assert city.venues_of_leaf("Space Elevator") == []


def _sorted_nearest(venues, point, k):
    """The k nearest by a full stable sort: ``_nearest``'s reference."""
    return sorted(venues, key=lambda v: equirectangular_m(point.lat, point.lon,
                                                          v.lat, v.lon))[:k]


def _random_pool(rng, n, n_sites):
    """``n`` venues on ``n_sites`` distinct points, so many coordinates repeat."""
    lat = 40.70 + rng.uniform(-0.05, 0.05, n_sites)
    lon = -74.00 + rng.uniform(-0.05, 0.05, n_sites)
    site = rng.integers(n_sites, size=n)
    return [Venue(f"v{i:04d}", f"v{i}", "c", "Cafe", GeoPoint(float(lat[s]), float(lon[s])))
            for i, s in enumerate(site.tolist())]


class TestNearest:
    """``_nearest`` re-ranks array-picked candidates; it must equal the full sort."""

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_the_stable_sort(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 300))
        venues = _random_pool(rng, n, n_sites=int(rng.integers(1, n + 1)))
        pool = _Pool.of(venues)
        queries = [GeoPoint(40.70 + float(rng.uniform(-0.06, 0.06)),
                            -74.00 + float(rng.uniform(-0.06, 0.06))) for _ in range(5)]
        queries += [venues[int(rng.integers(n))].location for _ in range(5)]  # distance 0
        for point in queries:
            for k in {1, 2, 8, n // 2, n - 1, n, n + 5}:
                assert _nearest(pool, point, k) == _sorted_nearest(venues, point, k)

    def test_exact_ties_keep_pool_order(self):
        spot = GeoPoint(40.71, -74.01)
        venues = [Venue(f"v{i}", f"v{i}", "c", "Cafe", spot) for i in range(6)]
        venues.insert(3, Venue("far", "far", "c", "Cafe", GeoPoint(40.75, -74.05)))
        nearest = _nearest(_Pool.of(venues), spot, 4)
        assert [v.venue_id for v in nearest] == ["v0", "v1", "v2", "v3"]

    def test_empty_pool(self):
        assert _nearest(_Pool.of(()), GeoPoint(40.7, -74.0), 8) == []

    def test_k_at_least_the_pool(self):
        venues = _random_pool(np.random.default_rng(0), 5, 5)
        point = GeoPoint(40.7, -74.0)
        assert _nearest(_Pool.of(venues), point, 5) == _sorted_nearest(venues, point, 5)
        assert _nearest(_Pool.of(venues), point, 50) == _sorted_nearest(venues, point, 50)


class TestAgents:
    @pytest.fixture(scope="class")
    def world(self):
        rng = np.random.default_rng(5)
        taxonomy = build_default_taxonomy()
        city = build_city(SMALL_CONFIG.bbox, 6, 600, 800.0, rng, taxonomy)
        agents = build_agents(city, SMALL_CONFIG, rng)
        return city, agents

    def test_population_size(self, world):
        _, agents = world
        assert len(agents) == SMALL_CONFIG.n_users

    def test_personas_distributed(self, world):
        _, agents = world
        personas = {a.persona for a in agents}
        assert personas == {"worker", "student", "freelancer"}

    def test_rates_clamped(self, world):
        _, agents = world
        lo, hi = SMALL_CONFIG.checkin_rate_clamp
        assert all(lo <= a.checkin_prob <= hi for a in agents)

    def test_routines_reference_real_venues(self, world):
        city, agents = world
        for agent in agents[:20]:
            for stop in agent.weekday_routine:
                if stop.pool_kind == "fixed":
                    assert stop.target in city.venues_by_id

    def test_preference_pools_match_category(self, world):
        city, agents = world
        for agent in agents[:20]:
            for stop in agent.weekday_routine:
                if stop.pool_kind == "leaf" and stop.slot_key in agent.preferred:
                    pool = agent.preferred[stop.slot_key]
                    assert all(v.category_name == stop.target for v in pool)

    def test_weekend_vs_weekday_routine(self, world):
        _, agents = world
        agent = agents[0]
        assert agent.routine_for(0) == agent.weekday_routine
        assert agent.routine_for(6) == agent.weekend_routine


class TestGeneration:
    def test_deterministic(self):
        cfg = SynthConfig(**{**SMALL_CONFIG.__dict__, "n_users": 10})
        a = generate(cfg).dataset
        b = generate(cfg).dataset
        assert len(a) == len(b)
        assert [c.timestamp for c in a] == [c.timestamp for c in b]
        assert [c.venue_id for c in a] == [c.venue_id for c in b]

    def test_different_seed_differs(self):
        base = {**SMALL_CONFIG.__dict__, "n_users": 10}
        a = generate(SynthConfig(**{**base, "seed": 1})).dataset
        b = generate(SynthConfig(**{**base, "seed": 2})).dataset
        assert [c.venue_id for c in a] != [c.venue_id for c in b]

    def test_timestamps_inside_period(self, small_ds):
        lo, hi = small_ds.time_range()
        assert lo.date() >= SMALL_CONFIG.start_date
        # One day of slack: local-time offsets can spill into the next UTC day.
        assert (hi.date() - SMALL_CONFIG.end_date).days <= 1

    def test_sparse_like_paper(self, small_ds):
        stats = dataset_stats(small_ds)
        assert stats.is_sparse

    def test_checkins_reference_city_venues(self, small_gen):
        for record in list(small_gen.dataset)[:200]:
            venue = small_gen.city.venues_by_id[record.venue_id]
            assert venue.category_name == record.category_name

    def test_flexibility_same_slot_many_venues(self, small_gen):
        """The paper's motivation: a user's lunch slot spans multiple venues."""
        # Power users have enough records to observe the flexibility.
        busiest = max(small_gen.agents, key=lambda a: a.checkin_prob)
        records = small_gen.dataset.for_user(busiest.user_id)
        lunch = [c for c in records
                 if 11.5 <= (lt := c.local_time).hour + lt.minute / 60 + lt.second / 3600 <= 13.8
                 and c.category_name == busiest.weekday_routine[3].target]
        if len(lunch) >= 10:
            assert len({c.venue_id for c in lunch}) >= 2

    def test_ground_truth_accessible(self, small_gen):
        assert small_gen.agents_by_id[small_gen.agents[0].user_id] is small_gen.agents[0]


def _generation_digest(config: SynthConfig) -> str:
    """sha256 over every record's full tuple and every agent's ground truth."""
    gen = generate(config)
    h = hashlib.sha256()
    for c in gen.dataset:
        h.update(repr((
            c.user_id, c.venue_id, c.category_id, c.category_name, c.lat, c.lon,
            c.tz_offset_min, c.timestamp.isoformat(timespec="microseconds"),
        )).encode())
    for a in gen.agents:
        h.update(repr((
            a.user_id, a.persona, a.home.venue_id,
            a.work.venue_id if a.work else None, a.checkin_prob,
            a.weekday_routine, a.weekend_routine,
            sorted((k, tuple(v.venue_id for v in pool)) for k, pool in a.preferred.items()),
        )).encode())
    return h.hexdigest()


_DERBY = CityEvent(name="derby", day=date(2012, 5, 12), venue_category="Stadium",
                   attendance_prob=0.6)


class TestGoldenOutput:
    """The generator's output is pinned byte for byte at fixed seeds.

    The digests pin numpy's ``Generator`` stream *and* the order and kind of
    every draw the simulation makes.  Under NEP 19 the PCG64 bit stream is
    stable, but how ``Generator`` methods turn bits into values may change
    between numpy releases; ``TestDrawHelpers`` and ``TestRawReader`` tell
    whether ``choice`` or the raw-output reader is the cause when a numpy
    upgrade breaks these digests.  A speed-up of the generator must keep
    them unchanged; a deliberate change to the draw order must re-record
    them and regenerate every artifact built from generated data.
    """

    @pytest.mark.parametrize("config, digest", [
        (SMALL_CONFIG,
         "9d009c2238feda36d258e4078c39b6df0d34081b66069b95fd2f66ff2eef2cc4"),
        (replace(SMALL_CONFIG, exploration_prob=1.0),
         "85aad01450a7410abac7862c724e32ae85429cf4c8f30562396ef6fc985a0ff4"),
        (replace(SMALL_CONFIG, exploration_prob=0.0, preferred_venues_per_slot=1),
         "6a4d7877c8722fb4553fd3122269a24820fbf3d17a9e18fe4aa9334a43ec1f8a"),
        (replace(SMALL_CONFIG, preferred_venues_per_slot=6, seed=3),
         "4e242e9b652d9401ce1a2b48e51e3b32641a08c9f3993074bc3937e09de95a2b"),
        (replace(SMALL_CONFIG, events=(_DERBY,)),
         "7376a24c661fd5ccfb1b5cd5302aab2db5368f5868af5fe47f41f46fb30268a8"),
    ], ids=["small", "explore-always", "explore-never-one-pref", "six-prefs-seed3", "event"])
    def test_digest(self, config, digest):
        assert _generation_digest(config) == digest

    def test_bench_city_tsv_digest(self, tmp_path):
        """perfbench's city, as the bytes ``write_foursquare_tsv`` writes.

        This pins the generator and the writer together on the city every
        benchmark run serves (58,214 rows).
        """
        path = tmp_path / "bench.tsv"
        write_foursquare_tsv(generate(SynthConfig(seed=20230701, n_users=300,
                                                  n_venues=2500)).dataset, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "b49afa4082859f416f429eb89b502e6bf0c189fa565b28db4e9091f81a1432a5")


class TestDrawHelpers:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_cached_cdf_pick_equals_choice(self, n):
        """The cached-CDF pick is ``choice(n, p=...)``: same index, same stream.

        If a numpy release changed how ``choice`` consumes the bit stream,
        this fails before the golden digests do, and names the cause.
        """
        ours, numpys = np.random.default_rng(n), np.random.default_rng(n)
        cdf, weights = _preference_cdf(n), _preference_weights(n)
        picks = [bisect_right(cdf, ours.random()) for _ in range(3000)]
        assert picks == [int(numpys.choice(n, p=weights)) for _ in range(3000)]
        assert ours.random() == numpys.random()


#: ``integers`` bounds: no draw (1), small ranges, and 3·2**30, where
#: Lemire's rejection loop redraws about one time in four.
_BOUNDS = (1, 2, 3, 7, 3 << 30)
#: Ends every replay: a double, then two full-range ints, which take the
#: buffered uint32 half first if there is one, then a double again.
_TAIL = [("random", None), ("integers", 1 << 32), ("integers", 1 << 32), ("random", None)]


def _reader_draws(reader, ops):
    """Replay ``ops`` through ``reader`` as the day loop does; values and positions."""
    i, values, positions = 0, [], []
    for kind, arg in ops:
        if kind == "random":
            i = reader.room(i)
            value = reader.dbl[i]
            i += 1
        elif kind == "integers":
            value, i = reader.integers(i, arg)
        else:
            value, i = reader.normal(i, arg)
        values.append(value)
        positions.append(reader._base + i)
    return values, positions


def _numpy_draws(rng, ops):
    draw = {"random": lambda _: rng.random(), "integers": lambda n: int(rng.integers(n)),
            "normal": lambda scale: rng.normal(0.0, scale)}
    return [draw[kind](arg) for kind, arg in ops]


class TestRawReader:
    """The day loop's reader is numpy's ``random``, ``integers`` and ``normal``.

    Twin generators start at one seed: one feeds a :class:`_RawReader`, the
    other answers with numpy's own methods.  Values must match bit for bit,
    and so must where each stream stands afterwards (``_TAIL``), buffered
    uint32 half included.  Like ``TestDrawHelpers``, this names the cause
    when a numpy release breaks the golden digests.
    """

    def _check(self, seed, ops, block, warm=()):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in warm:
            assert ours.integers(n) == numpys.integers(n)
        values, positions = _reader_draws(_RawReader(ours, margin=1, block=block), ops + _TAIL)
        assert values == _numpy_draws(numpys, ops + _TAIL)
        return positions

    @pytest.mark.parametrize("block", [1, 5, 1 << 14])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_interleavings(self, seed, block):
        """Long mixed runs; blocks of 1 and 5 put reads across every boundary."""
        picker = np.random.default_rng(1000 + seed)
        ops = []
        for kind in picker.choice(["random", "integers", "normal"], size=6000, p=[0.6, 0.2, 0.2]):
            arg = {"random": None, "integers": int(picker.choice(_BOUNDS)),
                   "normal": float(picker.choice([1.0, 20.0]))}[str(kind)]
            ops.append((str(kind), arg))
        self._check(seed, ops, block)

    @pytest.mark.parametrize("n", _BOUNDS)
    def test_entry_with_a_buffered_half(self, n):
        """``build_agents`` may leave a uint32 half in ``bg.state``; it is drawn first."""
        rng = np.random.default_rng(11)
        rng.integers(5)
        assert rng.bit_generator.state["has_uint32"] == 1
        self._check(11, [("integers", n)] * 50 + [("random", None), ("integers", n)] * 50,
                    block=5, warm=(5,))

    def test_normal_slow_paths(self):
        """Enough normals that the ziggurat's wedge and tail use 2 and 3+ outputs."""
        ops = [("normal", 20.0), ("random", None)] * 40000
        positions = self._check(5, ops, block=1 << 14)
        used = Counter(positions[k] - positions[k - 1] for k in range(2, 2 * 40000, 2))
        assert used[1] > used[2] > 0
        assert any(count for k, count in used.items() if k >= 3)
