"""The *modified PrefixSpan* of CrowdWeb/iMAP: flexible mobility patterns.

The paper's motivation is that humans are consistent in *kind* but flexible
in *detail*: lunch is always "a Thai place around noon", never the same
venue, never the exact same minute.  Classic PrefixSpan over raw items
cannot see such a routine.  The modified algorithm works on
(time-bin, place-label) items and relaxes matching in two directions:

* **time tolerance** — a pattern item at bin 12 matches visits at bins
  11–13 (circular, configurable);
* **label flexibility** — optionally, a pattern item labeled with an
  *ancestor* category ("Eatery") matches visits to any descendant
  ("Thai Restaurant"); candidate pattern items are generated at every
  abstraction level, so the most supported level wins.

Support stays sequence-relative (fraction of user-days), matching the
paper's ``min_support`` sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..obs import DEPTH_BUCKETS, get_observer
from ..sequences.database import SequenceDatabase
from ..sequences.items import TimedItem
from ..taxonomy import CategoryTree, UnknownCategoryError
from .base import MiningLimits, SequentialPattern, candidate_sort_key, sort_patterns
from .index import build_match_index

__all__ = [
    "FlexibleMatcher",
    "ModifiedPrefixSpanConfig",
    "modified_prefixspan",
    "modified_prefixspan_reference",
]


class FlexibleMatcher:
    """Time-tolerant, optionally taxonomy-aware item matching.

    Parameters
    ----------
    n_bins:
        Number of time bins per day (for circular bin distance).
    time_tolerance_bins:
        A pattern item at bin ``b`` matches sequence items in
        ``[b - tol, b + tol]`` (circular).
    taxonomy / include_ancestor_labels:
        When enabled, each observed label also generates pattern-item
        candidates for each of its taxonomy ancestors, and an ancestor label
        matches any descendant.  Labels missing from the taxonomy degrade to
        exact matching.
    """

    def __init__(
        self,
        n_bins: int,
        time_tolerance_bins: int = 1,
        taxonomy: Optional[CategoryTree] = None,
        include_ancestor_labels: bool = False,
    ) -> None:
        if n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        if time_tolerance_bins < 0:
            raise ValueError("time tolerance must be non-negative")
        self.n_bins = n_bins
        self.time_tolerance_bins = time_tolerance_bins
        self.taxonomy = taxonomy
        self.include_ancestor_labels = include_ancestor_labels and taxonomy is not None
        self._ancestor_cache: Dict[str, Tuple[str, ...]] = {}
        self._distance_cache: Dict[Tuple[int, int], int] = {}

    def _bin_distance(self, a: int, b: int) -> int:
        # Memoized: the miner evaluates the same (pattern bin, item bin)
        # pairs millions of times on a large day database.
        key = (a, b)
        cached = self._distance_cache.get(key)
        if cached is None:
            d = abs(a - b)
            cached = self._distance_cache[key] = min(d, self.n_bins - d)
        return cached

    def _ancestors_of(self, label: str) -> Tuple[str, ...]:
        """The label itself plus its taxonomy ancestors (nearest first)."""
        cached = self._ancestor_cache.get(label)
        if cached is not None:
            return cached
        names: Tuple[str, ...] = (label,)
        if self.include_ancestor_labels:
            assert self.taxonomy is not None
            try:
                node = self.taxonomy.resolve(label)
                names = (label,) + tuple(a.name for a in self.taxonomy.ancestors(node.category_id))
            except UnknownCategoryError:
                pass
        self._ancestor_cache[label] = names
        return names

    def _label_matches(self, pattern_label: str, item_label: str) -> bool:
        return pattern_label in self._ancestors_of(item_label)

    def candidates_for(self, item: TimedItem) -> Iterable[TimedItem]:
        # The matcher protocol's boundary API: consumed by the reference
        # oracle and by index *construction* (once per distinct item), never
        # inside the interned mining recursion.
        return (TimedItem(item.bin, name) for name in self._ancestors_of(item.label))  # crowdlint: disable=CW505

    def matches(self, pattern_item: TimedItem, item: TimedItem) -> bool:
        return (
            self._bin_distance(pattern_item.bin, item.bin) <= self.time_tolerance_bins
            and self._label_matches(pattern_item.label, item.label)
        )


@dataclass(frozen=True)
class ModifiedPrefixSpanConfig:
    """Knobs of the modified algorithm (defaults match the paper's setup)."""

    min_support: float = 0.5
    limits: MiningLimits = field(default_factory=MiningLimits)
    time_tolerance_bins: int = 1
    include_ancestor_labels: bool = False
    #: Merge pattern-item candidates that differ only in bin but support the
    #: exact same user-days (keeps reports free of near-duplicate patterns).
    canonicalize_bins: bool = True

    def __post_init__(self) -> None:
        if not (0.0 < self.min_support <= 1.0):
            raise ValueError("min_support must be in (0, 1]")
        if self.time_tolerance_bins < 0:
            raise ValueError("time_tolerance_bins must be non-negative")


def modified_prefixspan(
    db: SequenceDatabase[TimedItem],
    config: ModifiedPrefixSpanConfig = ModifiedPrefixSpanConfig(),
    taxonomy: Optional[CategoryTree] = None,
    n_bins: int = 24,
) -> List[SequentialPattern[TimedItem]]:
    """Mine flexible mobility patterns from one user's daily-sequence database.

    Returns patterns in canonical order.  With ``time_tolerance_bins=0`` and
    no taxonomy this is exactly classic PrefixSpan.

    This is the indexed fast path: it precomputes an inverted match index
    (:mod:`repro.mining.index`) once per database, restricts each recursion
    node to candidates actually occurring in the projected sequences, and
    prunes candidates whose remaining possible supporters cannot reach the
    support threshold.  The whole recursion runs on the interned
    representation — candidate ids are dense ints whose numeric order *is*
    :func:`~repro.mining.base.candidate_sort_key` order, and projection
    position sets are int bitmasks — decoding back to :class:`TimedItem`
    only at pattern emission.  Output is bit-for-bit identical to
    :func:`modified_prefixspan_reference` (the parity suite enforces this).
    """
    n = len(db)
    if n == 0:
        return []
    matcher = FlexibleMatcher(
        n_bins=n_bins,
        time_tolerance_bins=config.time_tolerance_bins,
        taxonomy=taxonomy,
        include_ancestor_labels=config.include_ancestor_labels,
    )
    min_count = db.min_count(config.min_support)
    index = build_match_index(db, matcher)
    candidate_items = index.candidate_items
    seq_candidates = index.seq_candidates
    supporters_of = index.supporters_of
    min_length = config.limits.min_length
    admits_longer_than = config.limits.admits_longer_than
    canonicalize_bins = config.canonicalize_bins
    results: List[SequentialPattern[TimedItem]] = []

    # Structural counters for the observability layer.  The tallies are
    # plain local ints (negligible next to the matching work) so the mined
    # output and recursion order are identical whether or not an observer
    # is active; everything is emitted in one shot at the end.
    observer = get_observer()
    observing = observer.enabled
    n_nodes = 0
    n_pruned_upper = 0  # candidates skipped by the occurrence upper bound
    n_pruned_exact = 0  # candidates rejected by the exact supporter scan
    node_depths: List[int] = []

    # Occurrence tally, reused across recursion nodes: ``counts`` is a flat
    # list indexed by candidate id (always all-zero between nodes) and
    # ``touched`` records which slots a node dirtied, so resetting costs
    # O(candidates seen) rather than O(pool).
    counts = [0] * len(candidate_items)

    def grow(prefix: Tuple[TimedItem, ...], projections: Dict[int, int]) -> None:
        nonlocal n_nodes, n_pruned_upper, n_pruned_exact
        n_nodes += 1
        if observing:
            node_depths.append(len(prefix))
        # Upper-bound tally: in how many projected sequences does each
        # candidate occur at all (at any position)?  Only candidates that
        # could still reach min_count get the exact position check.
        touched: List[int] = []
        for seq_index in projections:
            for cid in seq_candidates[seq_index]:
                if counts[cid] == 0:
                    touched.append(cid)
                counts[cid] += 1

        supported: Dict[int, Dict[int, int]] = {}
        for cid in touched:
            upper = counts[cid]
            counts[cid] = 0  # reset as we drain; all-zero again before recursing
            if upper < min_count:
                n_pruned_upper += 1
                continue
            supporters = supporters_of(cid, projections, min_count, upper)
            if supporters is not None:
                supported[cid] = supporters
            else:
                n_pruned_exact += 1

        if canonicalize_bins:
            supported = _canonicalize_ids(supported, candidate_items)

        # Candidate ids sort exactly like candidate_sort_key sorts items.
        for cid in sorted(supported):
            supporters = supported[cid]
            count = len(supporters)
            pattern_items = prefix + (candidate_items[cid],)
            if len(pattern_items) >= min_length:
                results.append(
                    SequentialPattern(items=pattern_items, count=count, support=count / n)
                )
            if admits_longer_than(len(pattern_items)):
                grow(pattern_items, supporters)

    grow((), {i: 1 for i in range(n)})
    if observer.enabled:
        observer.inc("repro_mining_runs_total")
        observer.inc("repro_mining_nodes_total", n_nodes)
        observer.inc("repro_mining_prune_upper_total", n_pruned_upper)
        observer.inc("repro_mining_prune_exact_total", n_pruned_exact)
        observer.observe(
            "repro_mining_candidate_pool_size", index.n_candidates(),
            buckets=(8, 16, 32, 64, 128, 256, 512, 1024, 2048),
        )
        for depth in node_depths:
            observer.observe(
                "repro_mining_projection_depth", depth, buckets=DEPTH_BUCKETS
            )
    return sort_patterns(results)


def modified_prefixspan_reference(
    db: SequenceDatabase[TimedItem],
    config: ModifiedPrefixSpanConfig = ModifiedPrefixSpanConfig(),
    taxonomy: Optional[CategoryTree] = None,
    n_bins: int = 24,
) -> List[SequentialPattern[TimedItem]]:
    """The original straight-line miner: global pool re-scan at every node.

    Kept as the parity oracle for :func:`modified_prefixspan`, and as the
    baseline its speed gate must beat; do not use it on large databases.
    """
    n = len(db)
    if n == 0:
        return []
    matcher = FlexibleMatcher(
        n_bins=n_bins,
        time_tolerance_bins=config.time_tolerance_bins,
        taxonomy=taxonomy,
        include_ancestor_labels=config.include_ancestor_labels,
    )
    min_count = db.min_count(config.min_support)
    sequences = db.sequences
    results: List[SequentialPattern[TimedItem]] = []

    def all_match_positions(
        candidate: TimedItem, seq: Tuple[TimedItem, ...], starts: FrozenSet[int]
    ) -> FrozenSet[int]:
        """Resume positions after every match of ``candidate``."""
        out: Set[int] = set()
        for start in starts:
            for k in range(start, len(seq)):
                if matcher.matches(candidate, seq[k]):
                    out.add(k + 1)
        return frozenset(out)

    # Candidate pattern items are drawn from the database's full observed
    # vocabulary (plus taxonomy ancestors).  The pool must be global, not
    # per-projection: with time tolerance, a pattern item at bin b can match
    # postfix items at bins b±tol even when no postfix item sits at b itself.
    global_pool: Set[TimedItem] = set()
    for seq in sequences:
        for item in seq:
            global_pool.update(matcher.candidates_for(item))

    def grow(prefix: Tuple[TimedItem, ...], projections: Dict[int, FrozenSet[int]]) -> None:
        # Exact support of every pool candidate via the match predicate.
        supported: Dict[TimedItem, Dict[int, FrozenSet[int]]] = {}
        for candidate in global_pool:
            supporters: Dict[int, FrozenSet[int]] = {}
            for seq_index, starts in projections.items():
                positions = all_match_positions(candidate, sequences[seq_index], starts)
                if positions:
                    supporters[seq_index] = positions
            if len(supporters) >= min_count:
                supported[candidate] = supporters

        if config.canonicalize_bins:
            supported = _canonicalize(supported)

        for candidate in sorted(supported, key=candidate_sort_key):
            supporters = supported[candidate]
            count = len(supporters)
            pattern_items = prefix + (candidate,)
            if len(pattern_items) >= config.limits.min_length:
                results.append(
                    SequentialPattern(items=pattern_items, count=count, support=count / n)
                )
            if config.limits.admits_longer_than(len(pattern_items)):
                grow(pattern_items, supporters)

    grow((), {i: frozenset({0}) for i in range(n)})
    return sort_patterns(results)


def _canonicalize_ids(
    supported: Dict[int, Dict[int, int]],
    candidate_items: Sequence[TimedItem],
) -> Dict[int, Dict[int, int]]:
    """Interned twin of :func:`_canonicalize` (fast path).

    Same semantics over ids: position bitmasks are bijective with the
    reference's position frozensets, so two candidates have identical
    ``{sequence → mask}`` evidence exactly when the reference sees identical
    ``{sequence → positions}`` evidence — and ascending id order is
    ``candidate_sort_key`` order, so "keep the earliest bin" is "keep the
    lowest id".
    """
    kept: Dict[int, Dict[int, int]] = {}
    seen: Set[Tuple[str, Tuple[Tuple[int, int], ...]]] = set()
    for cid in sorted(supported):
        evidence = (candidate_items[cid].label, tuple(sorted(supported[cid].items())))
        if evidence in seen:
            continue
        seen.add(evidence)
        kept[cid] = supported[cid]
    return kept


def _canonicalize(
    supported: Dict[TimedItem, Dict[int, FrozenSet[int]]]
) -> Dict[TimedItem, Dict[int, FrozenSet[int]]]:
    """Drop candidates that duplicate a same-label candidate's evidence.

    Two candidates with the same label whose supporter→positions maps are
    identical describe the same real-world behaviour seen through adjacent
    bins; keep the earliest bin.
    """
    kept: Dict[TimedItem, Dict[int, FrozenSet[int]]] = {}
    seen: Dict[Tuple[str, Tuple[Tuple[int, FrozenSet[int]], ...]], TimedItem] = {}
    for candidate in sorted(supported, key=candidate_sort_key):
        evidence = (candidate.label, tuple(sorted(supported[candidate].items())))
        if evidence in seen:
            continue
        seen[evidence] = candidate
        kept[candidate] = supported[candidate]
    return kept
