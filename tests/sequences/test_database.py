"""Tests for the sequence database, including hypothesis properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequences import SequenceDatabase, build_user_database, is_subsequence
from repro.taxonomy import AbstractionLevel

items = st.integers(min_value=0, max_value=5)
sequences = st.lists(items, min_size=0, max_size=8)


class TestIsSubsequence:
    def test_basic(self):
        assert is_subsequence("ac", "abc")
        assert is_subsequence("abc", "abc")
        assert not is_subsequence("ca", "abc")
        assert not is_subsequence("aa", "abc")

    def test_empty_pattern_always_matches(self):
        assert is_subsequence([], [1, 2, 3])
        assert is_subsequence([], [])

    @given(sequences, sequences)
    @settings(max_examples=80)
    def test_concatenation_contains_both(self, a, b):
        assert is_subsequence(a, a + b)
        assert is_subsequence(b, a + b)

    @given(sequences)
    @settings(max_examples=50)
    def test_reflexive(self, seq):
        assert is_subsequence(seq, seq)

    @given(sequences, st.data())
    @settings(max_examples=50)
    def test_random_subsequence_matches(self, seq, data):
        mask = data.draw(st.lists(st.booleans(), min_size=len(seq), max_size=len(seq)))
        sub = [x for x, keep in zip(seq, mask) if keep]
        assert is_subsequence(sub, seq)


class TestSequenceDatabase:
    @pytest.fixture
    def db(self):
        return SequenceDatabase([
            ["a", "b", "c"],
            ["a", "c"],
            ["b", "c"],
            ["a", "b", "c", "a"],
        ])

    def test_protocol(self, db):
        assert len(db) == 4
        assert db[0] == ("a", "b", "c")
        assert len(list(db)) == 4

    def test_lengths(self, db):
        assert db.total_items() == 11
        assert SequenceDatabase([]).total_items() == 0

    def test_min_count(self, db):
        assert db.min_count(0.5) == 2
        assert db.min_count(0.51) == 3
        assert db.min_count(1.0) == 4
        assert db.min_count(0.01) == 1

    def test_min_count_invalid(self, db):
        with pytest.raises(ValueError):
            db.min_count(0.0)
        with pytest.raises(ValueError):
            db.min_count(1.5)


class TestBuilders:
    def test_build_user_database(self, small_ds, taxonomy):
        uid = small_ds.user_ids()[0]
        db = build_user_database(small_ds, uid, taxonomy, AbstractionLevel.ROOT)
        # One sequence per active day.
        active_days = len({c.local_date for c in small_ds.for_user(uid)})
        assert len(db) == active_days

    def test_build_all_covers_users(self, small_ds, taxonomy, user_databases):
        assert set(user_databases) == set(small_ds.user_ids())

    def test_levels_change_alphabet(self, small_ds, taxonomy):
        uid = max(small_ds.user_ids(), key=lambda u: len(small_ds.for_user(u)))
        root_db = build_user_database(small_ds, uid, taxonomy, AbstractionLevel.ROOT)
        venue_db = build_user_database(small_ds, uid, taxonomy, AbstractionLevel.VENUE)
        root_labels = {item.label for seq in root_db for item in seq}
        venue_labels = {item.label for seq in venue_db for item in seq}
        assert len(venue_labels) >= len(root_labels)
        assert all(label.startswith("v") for label in venue_labels)
