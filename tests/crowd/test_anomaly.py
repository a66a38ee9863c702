"""Tests for crowd-anomaly detection and the event-injection substrate."""

from datetime import date, datetime, timezone

import pytest

from repro.data import CheckIn, CheckInDataset, CityEvent, SMALL_CONFIG, SynthConfig, generate
from repro.crowd import detect_spikes
from repro.crowd.anomaly import _cell_day_counts
from repro.geo import MicrocellGrid

UTC = timezone.utc


def checkin(user, day, hour, lat, lon):
    return CheckIn(
        user_id=user, venue_id=f"v-{lat:.3f}-{lon:.3f}", category_id="",
        category_name="Stadium", lat=lat, lon=lon, tz_offset_min=0,
        timestamp=datetime(2012, 4, day, hour, 0, 0, tzinfo=UTC),
    )


@pytest.fixture
def spiky_world():
    """20 quiet days at one cell, then a blowout day."""
    records = []
    for day in range(1, 21):
        for u in range(2):  # baseline: 2 check-ins/day
            records.append(checkin(f"u{u}", day, 12, 40.70, -74.00))
    for u in range(30):  # the event day
        records.append(checkin(f"e{u}", 21, 19, 40.70, -74.00))
    # A second, always-quiet cell far away.
    for day in range(1, 22):
        records.append(checkin("w0", day, 9, 40.90, -73.75))
    ds = CheckInDataset(records)
    grid = MicrocellGrid(ds.bounding_box().expand(0.01), 1000.0)
    return ds, grid


class TestDailyCounts:
    def test_counts_partition_records(self, spiky_world):
        ds, grid = spiky_world
        counts, _ = _cell_day_counts(ds, grid)
        total = sum(c for days in counts.values() for c in days.values())
        assert total == len(ds)

    def test_per_day_values(self, spiky_world):
        ds, grid = spiky_world
        counts, _ = _cell_day_counts(ds, grid)
        hot_cell = grid.cell_index_clamped(40.70, -74.00)
        assert counts[hot_cell][date(2012, 4, 5)] == 2
        assert counts[hot_cell][date(2012, 4, 21)] == 30


class TestDetectSpikes:
    def test_finds_the_event(self, spiky_world):
        ds, grid = spiky_world
        spikes = detect_spikes(ds, grid, z_threshold=4.0)
        assert spikes
        top = spikes[0]
        assert top.day == date(2012, 4, 21)
        assert top.cell == grid.cell_index_clamped(40.70, -74.00)
        assert top.count == 30
        assert top.n_users == 30
        assert top.z_score > 10

    def test_quiet_cell_not_flagged(self, spiky_world):
        ds, grid = spiky_world
        spikes = detect_spikes(ds, grid, z_threshold=4.0)
        quiet_cell = grid.cell_index_clamped(40.90, -73.75)
        assert all(s.cell != quiet_cell for s in spikes)

    def test_threshold_monotone(self, spiky_world):
        ds, grid = spiky_world
        low = detect_spikes(ds, grid, z_threshold=2.0)
        high = detect_spikes(ds, grid, z_threshold=8.0)
        assert len(high) <= len(low)

    def test_min_count_filters(self, spiky_world):
        ds, grid = spiky_world
        assert detect_spikes(ds, grid, z_threshold=4.0, min_count=31) == []

    def test_invalid_params(self, spiky_world):
        ds, grid = spiky_world
        with pytest.raises(ValueError):
            detect_spikes(ds, grid, z_threshold=0)
        with pytest.raises(ValueError):
            detect_spikes(ds, grid, min_count=0)


class TestEventInjection:
    def test_event_day_has_extra_checkins(self):
        event = CityEvent(name="derby", day=date(2012, 5, 12),
                          venue_category="Stadium", attendance_prob=0.6)
        base = SynthConfig(**{**SMALL_CONFIG.__dict__})
        boosted = SynthConfig(**{**SMALL_CONFIG.__dict__, "events": (event,)})
        quiet = generate(base).dataset
        loud_gen = generate(boosted)
        loud = loud_gen.dataset
        assert len(loud) > len(quiet)
        event_day_records = [
            c for c in loud
            if c.local_date == event.day and c.category_name == "Stadium"
        ]
        # Attendance ~0.6 * 60 users with boosted check-in rates.
        assert len(event_day_records) >= 10

    def test_event_detectable_as_spike(self):
        event = CityEvent(name="derby", day=date(2012, 5, 12),
                          venue_category="Stadium", attendance_prob=0.6)
        config = SynthConfig(**{**SMALL_CONFIG.__dict__, "events": (event,)})
        ds = generate(config).dataset
        grid = MicrocellGrid(ds.bounding_box().expand(0.01), 750.0)
        spikes = detect_spikes(ds, grid, z_threshold=4.0, min_count=5)
        assert any(s.day == event.day for s in spikes)

    def test_invalid_event_category_raises(self):
        event = CityEvent(name="x", day=date(2012, 5, 12),
                          venue_category="Space Elevator")
        config = SynthConfig(**{**SMALL_CONFIG.__dict__, "events": (event,)})
        with pytest.raises(ValueError, match="no venue of category"):
            generate(config)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            CityEvent(name="x", day=date(2012, 5, 12), start_hour=25.0)
        with pytest.raises(ValueError):
            CityEvent(name="x", day=date(2012, 5, 12), attendance_prob=1.5)
        with pytest.raises(ValueError):
            CityEvent(name="x", day=date(2012, 5, 12), checkin_boost=0.5)
