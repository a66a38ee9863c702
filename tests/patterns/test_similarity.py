"""Tests for pattern/sequence similarity measures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining import SequentialPattern
from repro.patterns import (
    UserPatternProfile,
    jaccard_similarity,
    pattern_set_similarity,
    profile_similarity_matrix,
)
from repro.sequences import TimedItem


def profile(user_id, *item_tuples):
    patterns = tuple(
        SequentialPattern(items=tuple(TimedItem(b, l) for b, l in items),
                          count=5, support=0.5)
        for items in item_tuples
    )
    return UserPatternProfile(user_id=user_id, patterns=patterns, n_days=10)


class TestJaccard:
    def test_identical(self):
        assert jaccard_similarity({1, 2}, {1, 2}) == 1.0

    def test_disjoint(self):
        assert jaccard_similarity({1}, {2}) == 0.0

    def test_partial(self):
        assert jaccard_similarity({1, 2, 3}, {2, 3, 4}) == pytest.approx(0.5)

    def test_both_empty(self):
        assert jaccard_similarity(set(), set()) == 1.0


class TestPatternSetSimilarity:
    def test_same_items_full_similarity(self):
        a = profile("a", [(12, "Eatery")])
        b = profile("b", [(12, "Eatery")])
        assert pattern_set_similarity(a, b) == 1.0

    def test_partial_overlap(self):
        a = profile("a", [(12, "Eatery"), (9, "Work")])
        b = profile("b", [(12, "Eatery")])
        assert 0.0 < pattern_set_similarity(a, b) < 1.0

    def test_different_bins_no_overlap(self):
        a = profile("a", [(12, "Eatery")])
        b = profile("b", [(13, "Eatery")])
        assert pattern_set_similarity(a, b) == 0.0


class TestSimilarityMatrix:
    def test_shape_and_diagonal(self):
        profiles = {
            "a": profile("a", [(12, "Eatery")]),
            "b": profile("b", [(12, "Eatery")]),
            "c": profile("c", [(9, "Work")]),
        }
        ids, matrix = profile_similarity_matrix(profiles)
        assert ids == ["a", "b", "c"]
        assert matrix.shape == (3, 3)
        assert np.allclose(np.diag(matrix), 1.0)
        assert np.allclose(matrix, matrix.T)
        assert matrix[0, 1] == 1.0
        assert matrix[0, 2] == 0.0


#: Few distinct items, so item sets overlap, repeat and come out empty.
_ITEMS = [TimedItem(b, label) for b in (9, 12, 18) for label in ("Work", "Eatery", "Home")]


class TestSimilarityMatrixParity:
    @given(st.dictionaries(
        keys=st.text(alphabet="abcdef", min_size=1, max_size=2),
        values=st.lists(st.lists(st.sampled_from(_ITEMS), min_size=1, max_size=3),
                        max_size=3),
        max_size=12,
    ))
    @settings(max_examples=150, deadline=None)
    def test_matrix_equals_pairwise_similarity(self, patterns_by_user):
        profiles = {uid: profile(uid, *patterns) for uid, patterns in patterns_by_user.items()}
        ids, matrix = profile_similarity_matrix(profiles)
        assert ids == sorted(profiles)
        expected = [[pattern_set_similarity(profiles[a], profiles[b]) for b in ids]
                    for a in ids]
        assert matrix.tolist() == expected

    def test_no_users(self):
        ids, matrix = profile_similarity_matrix({})
        assert ids == [] and matrix.shape == (0, 0)
