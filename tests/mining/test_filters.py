"""Tests for closed filtering and pattern statistics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining import (
    MiningLimits,
    ModifiedPrefixSpanConfig,
    SequentialPattern,
    aggregate_stats,
    closed_patterns,
    modified_prefixspan,
    sort_patterns,
    user_mining_stats,
)
from repro.sequences import SequenceDatabase, TimedItem


def pattern(items, count, n=10):
    return SequentialPattern(items=tuple(items), count=count, support=count / n)


class TestSequentialPattern:
    def test_validation(self):
        with pytest.raises(ValueError):
            SequentialPattern(items=(), count=1, support=0.1)
        with pytest.raises(ValueError):
            SequentialPattern(items=("a",), count=-1, support=0.1)
        with pytest.raises(ValueError):
            SequentialPattern(items=("a",), count=1, support=1.5)

    def test_subpattern(self):
        assert pattern("ac", 1).is_subpattern_of(pattern("abc", 1))
        assert not pattern("ca", 1).is_subpattern_of(pattern("abc", 1))

    def test_len(self):
        assert len(pattern("abc", 1)) == 3


class TestClosed:
    def test_prefix_with_same_count_absorbed(self):
        patterns = [pattern("a", 5), pattern("ab", 5), pattern("b", 7)]
        closed = closed_patterns(patterns)
        assert {p.items for p in closed} == {("a", "b"), ("b",)}

    def test_prefix_with_higher_count_kept(self):
        patterns = [pattern("a", 8), pattern("ab", 5)]
        closed = closed_patterns(patterns)
        assert {p.items for p in closed} == {("a",), ("a", "b")}

    def test_empty(self):
        assert closed_patterns([]) == []


N_BINS = 6

# Small worlds: a handful of days, each a bin-ordered run of labelled visits.
worlds = st.lists(
    st.lists(
        st.builds(
            TimedItem,
            bin=st.integers(min_value=0, max_value=N_BINS - 1),
            label=st.sampled_from(("home", "work", "gym")),
        ),
        max_size=5,
    ).map(lambda day: sorted(day, key=lambda item: item.bin)),
    min_size=1,
    max_size=8,
)


class TestFilterInvariants:
    @given(worlds, st.sampled_from([0.25, 0.5, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_closed_within_all(self, days, min_support):
        config = ModifiedPrefixSpanConfig(
            min_support=min_support, limits=MiningLimits(max_length=3)
        )
        mined = modified_prefixspan(SequenceDatabase(days), config, n_bins=N_BINS)
        everything = {(p.items, p.count) for p in mined}
        closed = closed_patterns(mined)
        assert {(p.items, p.count) for p in closed} <= everything
        for p in mined:
            if p not in closed:
                assert any(q.count == p.count and len(q.items) > len(p.items)
                           and p.is_subpattern_of(q) for q in closed)


class TestTopKAndSort:
    def test_sort_by_count_then_length(self):
        patterns = [pattern("a", 3), pattern("bc", 5), pattern("d", 5)]
        ordered = sort_patterns(patterns)
        assert ordered[0].items == ("b", "c")
        assert ordered[1].items == ("d",)


class TestStats:
    def test_user_stats_empty(self):
        stats = user_mining_stats("u", [], n_days=30)
        assert stats.n_sequences == 0
        assert stats.avg_length == 0.0

    def test_user_stats_values(self):
        stats = user_mining_stats("u", [pattern("a", 5), pattern("abc", 3)], n_days=30)
        assert stats.n_sequences == 2
        assert stats.avg_length == pytest.approx(2.0)
        assert stats.max_length == 3

    def test_aggregate(self):
        per_user = {
            "u1": user_mining_stats("u1", [pattern("a", 5)], 30),
            "u2": user_mining_stats("u2", [pattern("ab", 4), pattern("b", 4)], 30),
            "u3": user_mining_stats("u3", [], 30),
        }
        agg = aggregate_stats(0.5, per_user)
        assert agg.n_users == 3
        assert agg.mean_sequences_per_user == pytest.approx(1.0)
        # Length mean excludes the pattern-less user.
        assert agg.mean_avg_length == pytest.approx((1.0 + 1.5) / 2)

    def test_aggregate_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate_stats(0.5, {})

    def test_aggregate_all_empty_users(self):
        per_user = {"u": user_mining_stats("u", [], 10)}
        agg = aggregate_stats(0.5, per_user)
        assert agg.mean_avg_length == 0.0
