"""Inverted match index for the modified PrefixSpan (the fast phase-2 core).

The reference miner (:func:`repro.mining.modified.modified_prefixspan_reference`)
re-scans the *entire* candidate pool at every recursion node and re-matches
each candidate against every projected sequence with an O(|seq|) inner loop.
Almost all of that work is redundant: :class:`~repro.mining.modified.FlexibleMatcher`
is *prefix-independent* — whether a candidate pattern item matches a sequence
item never depends on the prefix mined so far.

:class:`MatchIndex` therefore precomputes, once per user database,

``candidate id → {sequence index → sorted match positions}``

by a single pass over the interned sequence ids: each distinct item id
matches exactly the candidates ``(b, L)`` with ``L`` among the item label's
taxonomy ancestors (including itself) and ``b`` within the circular time
tolerance of the item's bin.  Enumerating those costs
``O(distinct_items × |ancestors| × (2·tol + 1))`` plus one O(1) table append
per occurrence — independent of the recursion depth — instead of
``O(|pool| × total_items)`` per recursion node.

Interned representation (this is the hot path)
----------------------------------------------
Everything the grow loop touches is an int:

* **Candidate ids** are dense ints from a private :class:`ItemVocab` built
  over the candidate pool.  Because the vocabulary sorts timed items by
  ``(label, bin)``, *candidate id order is exactly*
  :func:`~repro.mining.base.candidate_sort_key` *order* — sorting plain ints
  reproduces the reference miner's canonical expansion order for free.
* **Position sets are int bitmasks**: bit ``p`` set means "resume at
  position ``p``".  User-day sequences are short (tens of items), so a
  whole projection entry packs into one machine word — union is ``|``,
  emptiness is ``== 0``, and the minimum start is one bit trick.  (For
  databases whose sequences overflow word packing the masks degrade
  gracefully to Python long ints; a ``frozenset[int]`` variant benchmarked
  slower at every realistic sequence length, see docs/performance.md.)
* **Suffix masks are precomputed per (candidate, sequence)**: one backward
  pass builds the resume mask for *every* suffix offset at once, so the
  exact scan is one list index per projected sequence — no set or mask is
  ever rebuilt at grow time.

The index is only ever consulted for candidates drawn from the same global
pool the reference miner uses (observed ``(bin, ancestor-label)`` items), so
the mined output — decoded back to :class:`TimedItem` at the emission
boundary — is bit-for-bit identical.
"""

from __future__ import annotations

import weakref
from array import array
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..sequences.database import SequenceDatabase
from ..sequences.items import TimedItem
from ..sequences.vocab import ItemVocab

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .modified import FlexibleMatcher

__all__ = ["MatchIndex", "build_match_index"]


class MatchIndex:
    """Per-database inverted index of candidate-item match positions.

    Parameters
    ----------
    db:
        The user database; its interned sequences (one ``array('i')`` of
        item ids per user-day) and vocabulary are adopted directly.
    matcher:
        The flexible matcher whose ``matches`` predicate the index inverts.
        Matching must be prefix-independent (it is: time tolerance and label
        ancestry look at one item only).
    """

    __slots__ = (
        "seq_lens",
        "candidate_vocab",
        "candidate_items",
        "positions",
        "seq_candidates",
        "n_matched",
        "_suffix_masks",
    )

    def __init__(self, db: SequenceDatabase, matcher: "FlexibleMatcher") -> None:
        encoded: Tuple[array, ...] = db.encoded
        #: Per-sequence lengths — all the index needs from the raw data
        #: after construction (the arrays themselves are not retained).
        self.seq_lens: array = array("i", [len(arr) for arr in encoded])

        # The candidate pool mirrors the reference miner exactly: every
        # observed item plus its taxonomy-ancestor relabelings, at the
        # *observed* bin (time tolerance widens matching, not the pool).
        distinct_ids: Set[int] = set()
        for arr in encoded:
            distinct_ids.update(arr)
        pool: Set[TimedItem] = set()
        decode = db.vocab.decode
        for item_id in distinct_ids:
            pool.update(matcher.candidates_for(decode(item_id)))

        #: Candidate pool interned to dense ids; (label, bin)-sorted, so id
        #: order *is* candidate_sort_key order.
        self.candidate_vocab: ItemVocab[TimedItem] = ItemVocab(pool)
        #: id → shared TimedItem instance (the decode table for emission).
        self.candidate_items: Tuple[TimedItem, ...] = self.candidate_vocab.items
        n_candidates = len(self.candidate_items)

        # Circular tolerance offsets, deduplicated (2·tol+1 may wrap past
        # n_bins, in which case every bin is within tolerance).
        n_bins = matcher.n_bins
        tol = matcher.time_tolerance_bins
        if 2 * tol + 1 >= n_bins:
            offsets: Tuple[int, ...] = tuple(range(n_bins))
        else:
            offsets = tuple(sorted({d % n_bins for d in range(-tol, tol + 1)}))

        # Per *distinct* item id, the pool candidate ids matching it:
        # candidates (bin ± tol, ancestor-of-label) — item vocabularies are
        # tiny compared to total occurrences, so resolving the tolerance
        # window and ancestor chain once per distinct item is nearly free.
        encode_candidate = self.candidate_vocab.get
        matched_by: Dict[int, array] = {}
        # matched_by is consumed by key lookup only, and each item's candidate
        # array is built deterministically, so hash order here is unobservable.
        for item_id in distinct_ids:  # crowdlint: disable=CW203
            item = decode(item_id)
            seen: Set[int] = set()
            candidate_ids: List[int] = []
            item_bin = item.bin
            # Boundary decode/re-encode: runs once per *distinct* item at
            # build time, never per occurrence or per recursion node.
            for label in matcher._ancestors_of(item.label):
                for offset in offsets:
                    # This *is* the sanctioned boundary decode (see the
                    # comment above): once per distinct item at build time.
                    cid = encode_candidate(TimedItem((item_bin + offset) % n_bins, label))  # crowdlint: disable=CW505
                    if cid >= 0 and cid not in seen:
                        seen.add(cid)
                        candidate_ids.append(cid)
            matched_by[item_id] = array("i", candidate_ids)

        # One pass over the data records each occurrence's position under
        # every candidate it realizes.  Each candidate appears at most once
        # per occurrence (deduped above), so position lists come out
        # strictly increasing.
        positions: List[Dict[int, List[int]]] = [{} for _ in range(n_candidates)]
        for seq_index, arr in enumerate(encoded):
            for position, item_id in enumerate(arr):
                for cid in matched_by[item_id]:
                    per_seq = positions[cid]
                    plist = per_seq.get(seq_index)
                    if plist is None:
                        per_seq[seq_index] = [position]
                    else:
                        plist.append(position)

        #: candidate id → {sequence index → strictly increasing positions}.
        self.positions: Tuple[Dict[int, List[int]], ...] = tuple(positions)
        #: Candidates with at least one match anywhere (pool entries whose
        #: bin/label combination never occurs stay unmatched).
        self.n_matched: int = sum(1 for per_seq in positions if per_seq)

        #: sequence index → candidate ids with at least one match in it, in
        #: ascending id order — the grow-time tally iterates these.
        seq_candidates: List[List[int]] = [[] for _ in encoded]
        for cid, per_seq in enumerate(positions):
            for seq_index in per_seq:
                seq_candidates[seq_index].append(cid)
        self.seq_candidates: Tuple[array, ...] = tuple(
            array("i", cids) for cids in seq_candidates
        )

        # (candidate id, seq index) → resume-mask-by-start table:
        # masks[s] has bit k+1 set for every match position k >= s, so the
        # exact scan is a single list index at the projection's
        # minimum start.  Built lazily in one backward pass per pair (upper-
        # bound-pruned candidates never pay for it), shared across every
        # recursion node that projects into the same pair.
        self._suffix_masks: Dict[Tuple[int, int], List[int]] = {}

    # ------------------------------------------------------------------ api

    def n_candidates(self) -> int:
        """Number of pool candidates with at least one match anywhere."""
        return self.n_matched

    def supporters_of(
        self,
        cid: int,
        projections: Dict[int, int],
        min_count: int,
        upper: int,
    ) -> Optional[Dict[int, int]]:
        """Exact supporter → resume-mask map over a projection.

        ``projections`` maps sequence index → start-position bitmask.
        ``upper`` is the number of projected sequences the candidate occurs
        in at all (the caller's tally); the scan aborts with ``None`` as
        soon as the remaining sequences cannot lift the supporter count to
        ``min_count``.  Returns ``None`` for an infrequent candidate.

        The two scan directions (below) visit exactly the intersection of
        the candidate's sequences with the projection, so the supporter set
        is identical either way; we walk whichever side is smaller — a rare
        candidate over a broad projection walks its few position lists, a
        common one over a deep projection walks the projection.
        """
        pos_map = self.positions[cid]
        supporters: Dict[int, int] = {}
        remaining = upper
        suffix = self._suffix_masks
        seq_lens = self.seq_lens
        if len(pos_map) < len(projections):
            projections_get = projections.get
            for seq_index, plist in pos_map.items():
                starts = projections_get(seq_index)
                if starts is None:
                    continue
                remaining -= 1
                key = (cid, seq_index)
                masks = suffix.get(key)
                if masks is None:
                    masks = suffix[key] = _masks_by_start(
                        plist, seq_lens[seq_index]
                    )
                mask = masks[(starts & -starts).bit_length() - 1]
                if mask:
                    supporters[seq_index] = mask
                elif len(supporters) + remaining < min_count:
                    return None  # remaining-support upper bound
        else:
            pos_get = pos_map.get
            for seq_index, starts in projections.items():
                plist = pos_get(seq_index)
                if plist is None:
                    continue
                remaining -= 1
                key = (cid, seq_index)
                masks = suffix.get(key)
                if masks is None:
                    masks = suffix[key] = _masks_by_start(
                        plist, seq_lens[seq_index]
                    )
                mask = masks[(starts & -starts).bit_length() - 1]
                if mask:
                    supporters[seq_index] = mask
                elif len(supporters) + remaining < min_count:
                    return None
        return supporters if len(supporters) >= min_count else None


def _masks_by_start(plist: List[int], seq_len: int) -> List[int]:
    """Resume-mask table indexed by start position.

    ``masks[s]`` has bit ``k + 1`` set for every match position ``k >= s``
    (``masks[seq_len]`` is empty).  One backward pass builds the whole
    table, so projection is a list index — no per-node set or mask
    construction, no binary search.
    """
    masks = [0] * (seq_len + 1)
    acc = 0
    j = len(plist) - 1
    for s in range(seq_len - 1, -1, -1):
        if j >= 0 and plist[j] == s:
            acc |= 1 << (s + 1)
            j -= 1
        masks[s] = acc
    return masks


# Per-database index memo, keyed weakly on the database so entries die with
# it.  The inner key is everything the index depends on besides the data:
# the matcher's structural knobs (support thresholds do NOT shape the index,
# so a min_support sweep over one database reuses one index — and its
# accumulated suffix-mask tables — across every run).
_INDEX_MEMO: "weakref.WeakKeyDictionary[SequenceDatabase, Dict[tuple, MatchIndex]]"
_INDEX_MEMO = None  # type: ignore[assignment]


def _matcher_signature(matcher: "FlexibleMatcher") -> tuple:
    taxonomy = matcher.taxonomy if matcher.include_ancestor_labels else None
    return (
        matcher.n_bins,
        matcher.time_tolerance_bins,
        matcher.include_ancestor_labels,
        taxonomy,
    )


def build_match_index(db: SequenceDatabase, matcher: "FlexibleMatcher") -> MatchIndex:
    """Build (or reuse) the inverted match index for one user database.

    The database's interned arrays and vocabulary are adopted directly, no
    re-encoding, and its index is memoized per matcher configuration.
    """
    global _INDEX_MEMO
    if _INDEX_MEMO is None:
        _INDEX_MEMO = weakref.WeakKeyDictionary()
    per_db = _INDEX_MEMO.get(db)
    if per_db is None:
        per_db = _INDEX_MEMO[db] = {}
    signature = _matcher_signature(matcher)
    index = per_db.get(signature)
    if index is None:
        index = per_db[signature] = MatchIndex(db, matcher)
    return index
