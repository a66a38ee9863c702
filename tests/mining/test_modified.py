"""Tests for the modified PrefixSpan (the paper's core algorithm)."""

import pytest

from repro.mining import (
    FlexibleMatcher,
    MiningLimits,
    ModifiedPrefixSpanConfig,
    modified_prefixspan,
    prefixspan,
)
from repro.sequences import SequenceDatabase, TimedItem


def db_of(*sequences):
    return SequenceDatabase([
        [TimedItem(bin, label) for bin, label in seq] for seq in sequences
    ])


def as_set(patterns):
    return {(p.items, p.count) for p in patterns}


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"min_support": 0.0},
        {"min_support": 1.5},
        {"time_tolerance_bins": -1},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModifiedPrefixSpanConfig(**kwargs)


class TestDegenerateEquivalence:
    def test_tol_zero_equals_classic(self, active_db, taxonomy):
        config = ModifiedPrefixSpanConfig(
            min_support=0.5, time_tolerance_bins=0, canonicalize_bins=False
        )
        assert as_set(modified_prefixspan(active_db, config)) == as_set(
            prefixspan(active_db, 0.5)
        )


class TestTimeTolerance:
    def test_jittered_visits_merge(self):
        # Lunch at 11 on half the days, 12 on the other half: invisible to
        # exact matching at support 0.75, visible with tolerance 1.
        db = db_of(
            *[[(11, "Eatery")]] * 3,
            *[[(12, "Eatery")]] * 3,
        )
        exact = modified_prefixspan(db, ModifiedPrefixSpanConfig(
            min_support=0.75, time_tolerance_bins=0))
        assert exact == []
        flexible = modified_prefixspan(db, ModifiedPrefixSpanConfig(
            min_support=0.75, time_tolerance_bins=1))
        assert any(p.count == 6 and p.items[0].label == "Eatery" for p in flexible)

    def test_tolerance_is_circular(self):
        db = db_of(*[[(23, "Nightlife")]] * 2, *[[(0, "Nightlife")]] * 2)
        patterns = modified_prefixspan(db, ModifiedPrefixSpanConfig(
            min_support=0.9, time_tolerance_bins=1))
        assert any(p.count == 4 for p in patterns)

    def test_wider_tolerance_never_loses_support(self):
        db = db_of(
            [(8, "Work"), (12, "Eatery")],
            [(9, "Work"), (13, "Eatery")],
            [(10, "Work")],
        )
        for pattern_narrow in modified_prefixspan(
            db, ModifiedPrefixSpanConfig(min_support=0.34, time_tolerance_bins=0)
        ):
            wide = modified_prefixspan(
                db, ModifiedPrefixSpanConfig(min_support=0.34, time_tolerance_bins=2,
                                             canonicalize_bins=False)
            )
            matches = [p for p in wide if p.items == pattern_narrow.items]
            assert matches and matches[0].count >= pattern_narrow.count


class TestAncestorLabels:
    def test_flexible_label_pattern_found(self, taxonomy):
        # Thai / Chinese / Japanese lunches: no single leaf is frequent, but
        # the "Eatery" (or "Asian Restaurant") abstraction is.
        db = db_of(
            [(12, "Thai Restaurant")],
            [(12, "Chinese Restaurant")],
            [(12, "Japanese Restaurant")],
            [(12, "Thai Restaurant")],
        )
        config = ModifiedPrefixSpanConfig(min_support=0.9, time_tolerance_bins=0,
                                          include_ancestor_labels=True)
        patterns = modified_prefixspan(db, config, taxonomy=taxonomy)
        labels = {p.items[0].label for p in patterns}
        assert "Asian Restaurant" in labels
        assert "Eatery" in labels
        # No single leaf reaches 90% support.
        assert "Thai Restaurant" not in labels

    def test_without_taxonomy_no_ancestors(self):
        db = db_of([(12, "Thai Restaurant")], [(12, "Chinese Restaurant")])
        config = ModifiedPrefixSpanConfig(min_support=0.9, include_ancestor_labels=True)
        assert modified_prefixspan(db, config, taxonomy=None) == []

    def test_ancestor_support_at_least_leaf_support(self, taxonomy):
        db = db_of(
            [(12, "Thai Restaurant")],
            [(12, "Thai Restaurant")],
            [(12, "Chinese Restaurant")],
        )
        config = ModifiedPrefixSpanConfig(min_support=0.3, time_tolerance_bins=0,
                                          include_ancestor_labels=True)
        patterns = {p.items[0].label: p.count
                    for p in modified_prefixspan(db, config, taxonomy=taxonomy)
                    if len(p.items) == 1}
        assert patterns["Eatery"] == 3
        assert patterns["Thai Restaurant"] == 2


class TestCanonicalization:
    def test_duplicate_evidence_merged(self):
        # Bins 11 and 12 with tolerance 1 support each other identically.
        db = db_of(*[[(11, "Eatery"), (12, "Eatery")]] * 4)
        merged = modified_prefixspan(db, ModifiedPrefixSpanConfig(
            min_support=0.9, time_tolerance_bins=1, limits=MiningLimits(max_length=1)))
        unmerged = modified_prefixspan(db, ModifiedPrefixSpanConfig(
            min_support=0.9, time_tolerance_bins=1, canonicalize_bins=False,
            limits=MiningLimits(max_length=1)))
        assert len(merged) < len(unmerged)


class TestGeneralBehaviour:
    def test_empty_db(self):
        config = ModifiedPrefixSpanConfig()
        assert modified_prefixspan(SequenceDatabase([]), config) == []

    def test_supports_monotone_in_threshold(self, active_db, taxonomy):
        limits = MiningLimits(max_length=2)
        low = as_set(modified_prefixspan(active_db, ModifiedPrefixSpanConfig(
            min_support=0.3, limits=limits, canonicalize_bins=False), taxonomy))
        high = as_set(modified_prefixspan(active_db, ModifiedPrefixSpanConfig(
            min_support=0.6, limits=limits, canonicalize_bins=False), taxonomy))
        assert high <= low

    def test_counts_correct_against_manual_check(self):
        db = db_of(
            [(8, "Work"), (12, "Eatery")],
            [(8, "Work")],
            [(12, "Eatery")],
            [(9, "Work"), (12, "Eatery")],
        )
        patterns = modified_prefixspan(db, ModifiedPrefixSpanConfig(
            min_support=0.5, time_tolerance_bins=1))
        by_labels = {tuple(i.label for i in p.items): p.count for p in patterns}
        assert by_labels[("Work",)] == 3  # bins 8, 8, 9 all match with tol 1
        assert by_labels[("Eatery",)] == 3
        assert by_labels[("Work", "Eatery")] == 2


class TestFlexibleMatcher:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FlexibleMatcher(n_bins=0)
        with pytest.raises(ValueError):
            FlexibleMatcher(n_bins=24, time_tolerance_bins=-1)

    def test_matches_semantics(self, taxonomy):
        matcher = FlexibleMatcher(24, time_tolerance_bins=1, taxonomy=taxonomy,
                                  include_ancestor_labels=True)
        thai = TimedItem(12, "Thai Restaurant")
        assert matcher.matches(TimedItem(12, "Eatery"), thai)
        assert matcher.matches(TimedItem(13, "Thai Restaurant"), thai)
        assert not matcher.matches(TimedItem(14, "Thai Restaurant"), thai)
        assert not matcher.matches(TimedItem(12, "Shops"), thai)

    def test_candidates_include_ancestors(self, taxonomy):
        matcher = FlexibleMatcher(24, taxonomy=taxonomy, include_ancestor_labels=True)
        cands = {c.label for c in matcher.candidates_for(TimedItem(12, "Thai Restaurant"))}
        assert cands == {"Thai Restaurant", "Asian Restaurant", "Eatery"}
