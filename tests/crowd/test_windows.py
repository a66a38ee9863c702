"""Tests for time windows and rescaling."""

import pytest

from repro.crowd import TimeWindow, windows_for
from repro.sequences import HOURLY


class TestTimeWindow:
    def test_valid(self):
        w = TimeWindow(9, 10, HOURLY)
        assert w.start_hour == 9.0
        assert w.end_hour == 10.0
        assert w.label == "09:00-10:00"
        assert list(w) == [9]

    def test_multi_bin(self):
        w = TimeWindow(8, 12, HOURLY)
        assert w.label == "08:00-12:00"
        assert list(w.bins) == [8, 9, 10, 11]

    @pytest.mark.parametrize("start,end", [(-1, 5), (5, 5), (10, 9), (23, 25)])
    def test_invalid(self, start, end):
        with pytest.raises(ValueError):
            TimeWindow(start, end, HOURLY)


class TestWindowsFor:
    def test_hourly_tiling(self):
        windows = windows_for(HOURLY)
        assert len(windows) == 24
        assert windows[0].start_bin == 0
        assert windows[-1].end_bin == 24
        for a, b in zip(windows, windows[1:]):
            assert a.end_bin == b.start_bin

    def test_grouped(self):
        windows = windows_for(HOURLY, bins_per_window=3)
        assert len(windows) == 8
        assert windows[3].label == "09:00-12:00"

    def test_untileable_raises(self):
        with pytest.raises(ValueError):
            windows_for(HOURLY, bins_per_window=5)
        with pytest.raises(ValueError):
            windows_for(HOURLY, bins_per_window=0)
