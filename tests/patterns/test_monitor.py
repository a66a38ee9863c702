"""Tests for online routine conformance monitoring."""

import pytest

from repro.mining import SequentialPattern
from repro.patterns import PatternMonitor, PatternState, UserPatternProfile
from repro.sequences import TimedItem


def profile_with(*pattern_specs):
    """Each spec: (support, [(bin, label), ...])."""
    patterns = tuple(
        SequentialPattern(
            items=tuple(TimedItem(b, l) for b, l in items),
            count=int(support * 50), support=support,
        )
        for support, items in pattern_specs
    )
    return UserPatternProfile(user_id="u", patterns=patterns, n_days=50)


@pytest.fixture
def routine():
    return profile_with(
        (0.8, [(9, "Work"), (12, "Eatery"), (18, "Gym")]),
        (0.6, [(12, "Eatery")]),
    )


class TestObserve:
    def test_initial_state_pending(self, routine):
        monitor = PatternMonitor(routine)
        assert all(p.state is PatternState.PENDING for p in monitor.status())
        assert monitor.conformance() == 1.0

    def test_progression_to_completed(self, routine):
        monitor = PatternMonitor(routine)
        monitor.observe(TimedItem(9, "Work"))
        assert monitor.status()[0].state is PatternState.IN_PROGRESS
        assert monitor.status()[0].matched == 1
        monitor.observe(TimedItem(12, "Eatery"))
        monitor.observe(TimedItem(18, "Gym"))
        assert monitor.status()[0].state is PatternState.COMPLETED
        assert monitor.status()[1].state is PatternState.COMPLETED

    def test_tolerance_matches_adjacent_bin(self, routine):
        monitor = PatternMonitor(routine, tolerance_bins=1)
        monitor.observe(TimedItem(10, "Work"))  # one bin late
        assert monitor.status()[0].matched == 1

    def test_zero_tolerance_strict(self, routine):
        monitor = PatternMonitor(routine, tolerance_bins=0)
        monitor.observe(TimedItem(10, "Work"))
        assert monitor.status()[0].matched == 0

    def test_wrong_label_ignored(self, routine):
        monitor = PatternMonitor(routine)
        monitor.observe(TimedItem(9, "Shops"))
        assert monitor.status()[0].matched == 0

    def test_chronology_enforced(self, routine):
        monitor = PatternMonitor(routine)
        monitor.observe(TimedItem(12, "Eatery"))
        with pytest.raises(ValueError, match="chronological"):
            monitor.observe(TimedItem(9, "Work"))

    def test_invalid_tolerance(self, routine):
        with pytest.raises(ValueError):
            PatternMonitor(routine, tolerance_bins=-1)


class TestMissedDetection:
    def test_passing_a_bin_misses_the_pattern(self, routine):
        monitor = PatternMonitor(routine, tolerance_bins=1)
        monitor.advance_to(14)  # 9 am work never happened; 12 lunch neither
        states = [p.state for p in monitor.status()]
        assert states[0] is PatternState.MISSED
        assert states[1] is PatternState.MISSED

    def test_in_progress_can_still_miss_later_items(self, routine):
        monitor = PatternMonitor(routine, tolerance_bins=1)
        monitor.observe(TimedItem(9, "Work"))
        monitor.observe(TimedItem(12, "Eatery"))
        monitor.advance_to(22)  # gym never happened
        assert monitor.status()[0].state is PatternState.MISSED
        assert monitor.status()[1].state is PatternState.COMPLETED

    def test_clock_cannot_rewind(self, routine):
        monitor = PatternMonitor(routine)
        monitor.advance_to(12)
        with pytest.raises(ValueError):
            monitor.advance_to(9)

    def test_conformance_drops_with_misses(self, routine):
        monitor = PatternMonitor(routine, tolerance_bins=0)
        assert monitor.conformance() == 1.0
        monitor.advance_to(23)
        # Both patterns missed -> zero conformance.
        assert monitor.conformance() == 0.0

    def test_conformance_weighted_by_support(self):
        profile = profile_with(
            (0.9, [(9, "Work")]),
            (0.1, [(20, "Nightlife")]),
        )
        monitor = PatternMonitor(profile, tolerance_bins=0)
        monitor.observe(TimedItem(9, "Work"))
        monitor.advance_to(23)  # nightlife missed
        assert monitor.conformance() == pytest.approx(0.9)


class TestExpectedNext:
    def test_soonest_first(self, routine):
        monitor = PatternMonitor(routine)
        upcoming = monitor.expected_next()
        assert upcoming[0][0] == TimedItem(9, "Work")
        assert upcoming[1][0] == TimedItem(12, "Eatery")

    def test_updates_as_day_progresses(self, routine):
        monitor = PatternMonitor(routine)
        monitor.observe(TimedItem(9, "Work"))
        upcoming = monitor.expected_next()
        assert upcoming[0][0] == TimedItem(12, "Eatery")

    def test_empty_when_all_resolved(self, routine):
        monitor = PatternMonitor(routine, tolerance_bins=0)
        monitor.advance_to(23)
        assert monitor.expected_next() == []

    def test_empty_profile(self):
        monitor = PatternMonitor(UserPatternProfile("u", (), 10))
        assert monitor.expected_next() == []
        assert monitor.conformance() == 1.0


class TestIntegrationWithMinedProfiles:
    def test_replaying_a_real_day(self, pipeline_result, taxonomy):
        """Replaying one of the user's own recorded days should complete or
        keep in progress at least one pattern (their routine came from
        these very days)."""
        from repro.sequences import make_labeler, sessionize_user

        uid = max(pipeline_result.profiles,
                  key=lambda u: pipeline_result.profiles[u].n_patterns)
        profile = pipeline_result.profiles[uid]
        labeler = make_labeler(taxonomy, profile.level)
        sessions = sessionize_user(pipeline_result.dataset, uid, labeler,
                                   profile.binning)
        # Find a day that touches the strongest pattern's first label.
        target = profile.patterns[0].items[0]
        day = next(s for s in sessions
                   if any(i.label == target.label for i in s.items))
        monitor = PatternMonitor(profile, tolerance_bins=1)
        for item in day.items:
            monitor.observe(item)
        states = {p.state for p in monitor.status()}
        assert PatternState.COMPLETED in states or PatternState.IN_PROGRESS in states
