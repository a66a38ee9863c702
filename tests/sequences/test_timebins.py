"""Tests for time-of-day binning."""

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.mining import FlexibleMatcher
from repro.sequences import HOURLY, TimedItem, TimeBinning


def bin_of(binning, local_time):
    """The bin of a ``datetime``'s local clock, read field by field: the scalar oracle."""
    return binning.bin_of_hour(local_time.hour + local_time.minute / 60.0
                               + local_time.second / 3600.0)


class TestConstruction:
    def test_presets(self):
        assert HOURLY.n_bins == 24
        assert TimeBinning(2.0).n_bins == 12
        assert TimeBinning(4.0).n_bins == 6

    @pytest.mark.parametrize("width", [0, -1, 5, 7, 24.5])
    def test_invalid_widths(self, width):
        with pytest.raises(ValueError):
            TimeBinning(width)

    def test_fractional_width_allowed(self):
        assert TimeBinning(0.5).n_bins == 48


class TestBinning:
    def test_hour_boundaries(self):
        assert HOURLY.bin_of_hour(0.0) == 0
        assert HOURLY.bin_of_hour(8.99) == 8
        assert HOURLY.bin_of_hour(9.0) == 9
        assert HOURLY.bin_of_hour(23.99) == 23

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            HOURLY.bin_of_hour(24.0)
        with pytest.raises(ValueError):
            HOURLY.bin_of_hour(-0.1)

    def test_two_hourly(self):
        assert TimeBinning(2.0).bin_of_hour(9.5) == 4
        assert TimeBinning(2.0).bin_of_hour(23.0) == 11

    @pytest.mark.parametrize("width", [0.25, 1.0, 1.5, 2.0, 4.0, 8.0])
    def test_array_bins_equal_bin_of_on_every_second(self, width):
        binning = TimeBinning(width)
        day = datetime(2012, 4, 1)
        expected = [bin_of(binning, day + timedelta(seconds=s)) for s in range(86_400)]
        assert binning.bins_of_seconds(np.arange(86_400)).tolist() == expected


class TestLabelsAndBounds:
    def test_bounds(self):
        assert HOURLY.bounds(9) == (9.0, 10.0)
        assert TimeBinning(4.0).bounds(5) == (20.0, 24.0)

    def test_bounds_out_of_range(self):
        with pytest.raises(ValueError):
            HOURLY.bounds(24)

    def test_label_format(self):
        assert HOURLY.label(9) == "09:00-10:00"
        assert TimeBinning(0.5).label(19) == "09:30-10:00"


def bin_distance(a: int, b: int) -> int:
    """The bin distance the miner matches under: the least tolerance at
    which ``FlexibleMatcher`` lets bin ``a`` match bin ``b``."""
    return next(tol for tol in range(HOURLY.n_bins)
                if FlexibleMatcher(HOURLY.n_bins, tol).matches(TimedItem(a, "x"), TimedItem(b, "x")))


class TestDistance:
    def test_plain_distance(self):
        assert bin_distance(9, 11) == 2

    def test_circular_wraps_midnight(self):
        assert bin_distance(23, 0) == 1
        assert bin_distance(0, 23) == 1
        assert bin_distance(1, 22) == 3

    def test_max_distance_is_half_day(self):
        assert bin_distance(0, 12) == 12
