"""Property test: modified PrefixSpan against a brute-force flexible oracle.

The oracle enumerates every candidate pattern (items drawn from the
matcher's candidate generator) up to a length cap and counts support by a
direct flexible-subsequence check — an independent implementation of the
matching semantics.  The miner must produce exactly the same
(pattern, count) set.
"""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining import (
    FlexibleMatcher,
    MiningLimits,
    ModifiedPrefixSpanConfig,
    modified_prefixspan,
)
from repro.sequences import SequenceDatabase, TimedItem

N_BINS = 6
LABELS = ("A", "B")

items = st.builds(
    TimedItem,
    bin=st.integers(min_value=0, max_value=N_BINS - 1),
    label=st.sampled_from(LABELS),
)
databases = st.lists(
    st.lists(items, min_size=0, max_size=4).map(
        lambda seq: sorted(seq, key=lambda i: i.bin)  # bins ascend within a day
    ),
    min_size=1,
    max_size=6,
)


def flexible_contains(pattern, sequence, matcher):
    """Direct recursive check: does ``sequence`` contain ``pattern`` under
    the flexible semantics (order preserved, per-item match predicate)?"""

    def helper(p_idx, s_start):
        if p_idx == len(pattern):
            return True
        for k in range(s_start, len(sequence)):
            if matcher.matches(pattern[p_idx], sequence[k]):
                if helper(p_idx + 1, k + 1):
                    return True
        return False

    return helper(0, 0)


def oracle(db, min_support, matcher, max_length):
    """All frequent flexible patterns up to ``max_length`` by enumeration."""
    candidate_items = sorted(
        {cand for seq in db for item in seq for cand in matcher.candidates_for(item)}
    )
    n = len(db)
    min_count = db.min_count(min_support)
    found = {}
    for length in range(1, max_length + 1):
        for combo in product(candidate_items, repeat=length):
            count = sum(
                1 for seq in db if flexible_contains(combo, seq, matcher)
            )
            if count >= min_count:
                found[combo] = count
    return found


@given(databases, st.sampled_from([0.34, 0.5, 1.0]), st.sampled_from([0, 1]))
@settings(max_examples=50, deadline=None)
def test_modified_matches_flexible_oracle(raw, min_support, tolerance):
    db = SequenceDatabase(raw)
    matcher = FlexibleMatcher(n_bins=N_BINS, time_tolerance_bins=tolerance)
    config = ModifiedPrefixSpanConfig(
        min_support=min_support,
        limits=MiningLimits(max_length=2),
        time_tolerance_bins=tolerance,
        canonicalize_bins=False,
    )
    mined = {p.items: p.count for p in modified_prefixspan(db, config, n_bins=N_BINS)}
    expected = oracle(db, min_support, matcher, max_length=2)
    assert mined == expected


def test_oracle_sanity_handcrafted():
    """The oracle itself, pinned on a case small enough to check by hand."""
    db = SequenceDatabase([
        (TimedItem(1, "A"), TimedItem(3, "B")),
        (TimedItem(2, "A"),),
    ])
    matcher = FlexibleMatcher(n_bins=N_BINS, time_tolerance_bins=1)
    found = oracle(db, 0.9, matcher, max_length=2)
    # (1,A) matches seq1 item (1,A) and seq2 item (2,A); (2,A) matches both too.
    assert found[(TimedItem(1, "A"),)] == 2
    assert found[(TimedItem(2, "A"),)] == 2
    # Two-item patterns only exist in seq1 -> below 90% support.
    assert all(len(p) == 1 for p in found)
