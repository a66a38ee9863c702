"""The indexed miner is bit-for-bit identical to the reference core.

The indexed :func:`~repro.mining.modified.modified_prefixspan` exists only
for speed — its contract is *exact* output equality with
:func:`~repro.mining.modified.modified_prefixspan_reference` (the original
pool-rescan implementation, kept as the oracle).  These tests sweep that
equality over three independently-seeded synthetic worlds and the full
matcher-configuration surface: time tolerance, ancestor labels, and
canonicalization.
"""

from __future__ import annotations

from datetime import date

import pytest

from repro.data import SMALL_CONFIG, SynthConfig, generate
from repro.mining import (
    MiningLimits,
    ModifiedPrefixSpanConfig,
    build_match_index,
    modified_prefixspan,
    modified_prefixspan_reference,
)
from repro.mining.modified import FlexibleMatcher
from repro.sequences import build_all_databases
from repro.taxonomy import AbstractionLevel, build_default_taxonomy

#: Three pinned, independently-seeded worlds — different seeds shuffle the
#: venues, routines, and noise, so structural edge cases differ per world.
DATASET_CONFIGS = [
    SMALL_CONFIG,
    SynthConfig(
        seed=11,
        n_users=10,
        n_venues=180,
        n_neighborhoods=5,
        start_date=date(2012, 4, 1),
        end_date=date(2012, 6, 1),
    ),
    SynthConfig(
        seed=4099,
        n_users=8,
        n_venues=120,
        n_neighborhoods=4,
        start_date=date(2012, 7, 1),
        end_date=date(2012, 8, 20),
    ),
]

#: The matcher-configuration surface: tolerance × ancestors ×
#: canonicalization, plus a depth-limited run (limits interact with the
#: emission order).  Keyed by test id, so an id keeps naming one config
#: when others are added or removed.
CONFIGS = {
    "config0": ModifiedPrefixSpanConfig(),
    "config1": ModifiedPrefixSpanConfig(min_support=0.25, time_tolerance_bins=2),
    "config2": ModifiedPrefixSpanConfig(min_support=0.4, time_tolerance_bins=0),
    "config5": ModifiedPrefixSpanConfig(
        min_support=0.3, time_tolerance_bins=1, include_ancestor_labels=True
    ),
    "config6": ModifiedPrefixSpanConfig(min_support=0.5, canonicalize_bins=False),
    "config7": ModifiedPrefixSpanConfig(
        min_support=0.25, limits=MiningLimits(min_length=2, max_length=3)
    ),
}


@pytest.fixture(scope="module")
def taxonomy():
    return build_default_taxonomy()


@pytest.fixture(scope="module", params=range(len(DATASET_CONFIGS)))
def world_databases(request, taxonomy):
    dataset = generate(DATASET_CONFIGS[request.param]).dataset
    return build_all_databases(dataset, taxonomy, AbstractionLevel.ROOT)


def _busiest(databases, k):
    uids = sorted(databases, key=lambda uid: len(databases[uid]), reverse=True)
    return [(uid, databases[uid]) for uid in uids[:k]]


@pytest.mark.parametrize("config", list(CONFIGS.values()), ids=list(CONFIGS))
def test_indexed_equals_reference(world_databases, taxonomy, config):
    for uid, db in _busiest(world_databases, 4):
        indexed = modified_prefixspan(db, config, taxonomy)
        reference = modified_prefixspan_reference(db, config, taxonomy)
        assert indexed == reference, f"user {uid}: indexed output diverged"


def test_leaf_level_with_ancestors_equal(world_databases, taxonomy):
    """LEAF items exercise the full ancestor chain of the taxonomy."""
    config = ModifiedPrefixSpanConfig(
        min_support=0.4,
        include_ancestor_labels=True,
        limits=MiningLimits(max_length=3),
    )
    for uid, db in _busiest(world_databases, 2):
        indexed = modified_prefixspan(db, config, taxonomy)
        reference = modified_prefixspan_reference(db, config, taxonomy)
        assert indexed == reference


class TestMatchIndex:
    """Unit-level invariants of the inverted index itself."""

    @pytest.fixture(scope="class")
    def index_and_matcher(self, world_databases, taxonomy):
        db = _busiest(world_databases, 1)[0][1]
        matcher = FlexibleMatcher(
            n_bins=24, time_tolerance_bins=1, taxonomy=taxonomy
        )
        sequences = tuple(tuple(seq) for seq in db)
        return build_match_index(db, matcher), matcher, sequences

    def test_positions_strictly_increasing(self, index_and_matcher):
        index, _, _ = index_and_matcher
        for per_seq in index.positions:
            for plist in per_seq.values():
                assert list(plist) == sorted(set(plist))

    def test_positions_are_exactly_the_matches(self, index_and_matcher):
        """Every indexed position matches; every match is indexed."""
        index, matcher, sequences = index_and_matcher
        for cid, candidate in enumerate(index.candidate_items):
            per_seq = index.positions[cid]
            for seq_index, seq in enumerate(sequences):
                expected = [
                    k for k, item in enumerate(seq) if matcher.matches(candidate, item)
                ]
                assert list(per_seq.get(seq_index, [])) == expected

    def test_candidate_ids_sorted_like_candidate_sort_key(self, index_and_matcher):
        """Ascending id order must reproduce the canonical expansion order."""
        from repro.mining.base import candidate_sort_key

        index, _, _ = index_and_matcher
        items = list(index.candidate_items)
        assert items == sorted(items, key=candidate_sort_key)

    def test_seq_candidates_mirror_positions(self, index_and_matcher):
        index, _, sequences = index_and_matcher
        for seq_index in range(len(sequences)):
            from_lists = set(index.seq_candidates[seq_index])
            from_positions = {
                cid
                for cid, per_seq in enumerate(index.positions)
                if seq_index in per_seq
            }
            assert from_lists == from_positions

    def test_resume_masks_match_reference_semantics(self, index_and_matcher):
        """Bitmask resume positions decode to the oracle's frozensets."""
        index, matcher, sequences = index_and_matcher
        for cid, candidate in enumerate(index.candidate_items):
            for seq_index, seq in list(enumerate(sequences))[:8]:
                for start in (0, 1, len(seq) // 2):
                    supporters = index.supporters_of(cid, {seq_index: 1 << start}, 1, 1)
                    mask = supporters[seq_index] if supporters else 0
                    expected = {
                        k + 1
                        for k in range(start, len(seq))
                        if matcher.matches(candidate, seq[k])
                    }
                    decoded = set()
                    while mask:
                        low = mask & -mask
                        mask ^= low
                        decoded.add(low.bit_length() - 1)
                    assert decoded == expected
