"""The paper's qualitative claims, asserted against the reproduction.

``repro.experiments.claims`` checks every table and figure claim on the
``results.json`` of one ``crowdweb figures --scale small`` run, the same
check a paper-scale run reports in its ``MEASURED.md``.  The tests below
it name claims about single users and the crowd that need no full run.
"""

import pytest

from repro.data import dataset_stats
from repro.experiments import PAPER_CLAIMS, crowd_shift
from repro.mining import ModifiedPrefixSpanConfig, modified_prefixspan, prefixspan
from repro.sequences import build_user_database
from repro.taxonomy import AbstractionLevel


@pytest.mark.parametrize("claim", [c.name for c in PAPER_CLAIMS])
def test_claim_holds_at_small_scale(reproduction_results, claim):
    assert reproduction_results["claims"][claim] is True


class TestSparsityNarrative:
    def test_gtsm_data_is_sparse(self, small_ds):
        """§I.1: voluntary check-ins yield <1 record per user-day."""
        assert dataset_stats(small_ds).is_sparse

    def test_median_below_mean(self, small_ds):
        """§I.1: activity is right-skewed (median 153 < mean 210 in the paper)."""
        stats = dataset_stats(small_ds)
        assert stats.median_records_per_user <= stats.mean_records_per_user


class TestFlexiblePatternsClaim:
    def test_abstraction_reveals_hidden_routine(self, small_ds, taxonomy):
        """Intro: 'Thai Express / Seasoning Thai / Thai Pothong' — the venue-
        level pattern is invisible, the category-level one is strong."""
        uid = max(small_ds.user_ids(), key=lambda u: len(small_ds.for_user(u)))
        venue_db = build_user_database(small_ds, uid, taxonomy, AbstractionLevel.VENUE)
        root_db = build_user_database(small_ds, uid, taxonomy, AbstractionLevel.ROOT)
        config = ModifiedPrefixSpanConfig(min_support=0.5)
        venue_patterns = modified_prefixspan(venue_db, config, taxonomy)
        root_patterns = modified_prefixspan(root_db, config, taxonomy)
        assert len(root_patterns) > len(venue_patterns)

    def test_modified_finds_at_least_classic(self, active_db, taxonomy):
        """The time-tolerant matcher can only add support, never remove it."""
        classic = prefixspan(active_db, 0.5)
        flexible = modified_prefixspan(
            active_db,
            ModifiedPrefixSpanConfig(min_support=0.5, canonicalize_bins=False),
            taxonomy,
        )
        classic_items = {p.items for p in classic}
        flexible_by_items = {p.items: p.count for p in flexible}
        for p in classic:
            assert flexible_by_items.get(p.items, 0) >= p.count


class TestSectionThreeShapes:
    def test_short_patterns_more_frequent_than_long(self, active_db, taxonomy):
        """§III: 'Eatery' certifies more often than 'Eatery, Shops'."""
        patterns = modified_prefixspan(
            active_db, ModifiedPrefixSpanConfig(min_support=0.25), taxonomy
        )
        singles = [p.count for p in patterns if len(p.items) == 1]
        doubles = [p.count for p in patterns if len(p.items) == 2]
        if singles and doubles:
            assert max(singles) >= max(doubles)


class TestCrowdClaims:
    def test_crowd_relocates_over_the_day(self, pipeline_result):
        """Figs. 3-4: 'if we change the time, the crowd locations may change'."""
        snaps = [s for s in pipeline_result.timeline if s.n_users > 0]
        assert len(snaps) >= 2
        shifts = [crowd_shift(a, b) for a, b in zip(snaps, snaps[1:])]
        assert max(shifts) > 0.0

    def test_users_grouped_by_place_and_time(self, pipeline_result):
        """§I.3: co-located same-label users form groups."""
        best = pipeline_result.aggregator.busiest_window()
        groups = best.groups()
        assert groups
        assert sum(g.size for g in groups) == best.n_users
