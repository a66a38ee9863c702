"""Tests for user pattern profiles."""

from repro.mining import ModifiedPrefixSpanConfig, SequentialPattern
from repro.patterns import UserPatternProfile, detect_user_patterns
from repro.sequences import TimedItem


def make_profile():
    patterns = (
        SequentialPattern(items=(TimedItem(12, "Eatery"),), count=40, support=0.8),
        SequentialPattern(items=(TimedItem(9, "Work"), TimedItem(12, "Eatery")),
                          count=30, support=0.6),
        SequentialPattern(items=(TimedItem(20, "Nightlife"),), count=10, support=0.2),
    )
    return UserPatternProfile(user_id="u1", patterns=patterns, n_days=50)


class TestProfile:
    def test_basic_accessors(self):
        profile = make_profile()
        assert profile.n_patterns == 3
        assert [p.count for p in profile.top(2)] == [40, 30]
        assert profile.labels() == ["Eatery", "Nightlife", "Work"]

    def test_items_at_bin_exact(self):
        profile = make_profile()
        hits = profile.items_at_bin(12)
        assert len(hits) == 2
        assert {item.label for item, _ in hits} == {"Eatery"}

    def test_items_at_bin_tolerance(self):
        profile = make_profile()
        assert profile.items_at_bin(10) == []
        hits = profile.items_at_bin(10, tolerance=1)
        assert {item.label for item, _ in hits} == {"Work"}

    def test_items_at_bin_circular(self):
        profile = make_profile()
        hits = profile.items_at_bin(23, tolerance=3)
        assert {item.label for item, _ in hits} == {"Nightlife"}

    def test_to_dict_shape(self):
        payload = make_profile().to_dict()
        assert payload["user_id"] == "u1"
        assert payload["patterns"][0]["items"][0]["time"] == "12:00-13:00"
        assert payload["patterns"][0]["support"] == 0.8


class TestDetection:
    def test_detect_user_patterns(self, small_ds, taxonomy):
        uid = max(small_ds.user_ids(), key=lambda u: len(small_ds.for_user(u)))
        profile = detect_user_patterns(small_ds, uid, taxonomy)
        assert profile.user_id == uid
        assert profile.n_days > 0
        assert profile.n_patterns > 0
        # Canonical order: strongest first.
        counts = [p.count for p in profile.patterns]
        assert counts == sorted(counts, reverse=True)

    def test_closed_only_reduces(self, small_ds, taxonomy):
        uid = max(small_ds.user_ids(), key=lambda u: len(small_ds.for_user(u)))
        config = ModifiedPrefixSpanConfig(min_support=0.3)
        closed = detect_user_patterns(small_ds, uid, taxonomy, config=config)
        full = detect_user_patterns(small_ds, uid, taxonomy, config=config,
                                    closed_only=False)
        assert closed.n_patterns <= full.n_patterns

    def test_unknown_user_empty_profile(self, small_ds, taxonomy):
        profile = detect_user_patterns(small_ds, "ghost", taxonomy)
        assert profile.n_patterns == 0
        assert profile.n_days == 0

    def test_detect_all_covers_users(self, pipeline_result):
        assert set(pipeline_result.profiles) == set(pipeline_result.dataset.user_ids())
