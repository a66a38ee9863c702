"""Brute-force sequential-pattern miner — the test oracle.

Enumerates every distinct subsequence (up to a length cap) that actually
occurs in the database, then counts support by scanning.  Exponential in
sequence length, so only usable on small inputs — which is exactly what the
property-based tests feed it to cross-check PrefixSpan.
"""

from __future__ import annotations

from typing import Hashable, List, Set, Tuple, TypeVar

from ..sequences.database import SequenceDatabase, is_subsequence
from .base import MiningLimits, SequentialPattern, sort_patterns

__all__ = ["bruteforce_mine"]

Item = TypeVar("Item", bound=Hashable)


def _subsequences_upto(
    seq: Tuple[Item, ...], max_length: int
) -> Set[Tuple[Item, ...]]:
    """All distinct non-empty subsequences of ``seq`` up to ``max_length``."""
    found: Set[Tuple[Item, ...]] = set()

    def extend(start: int, current: Tuple[Item, ...]) -> None:
        if current:
            found.add(current)
        if len(current) >= max_length:
            return
        for k in range(start, len(seq)):
            extend(k + 1, current + (seq[k],))

    extend(0, ())
    return found


def bruteforce_mine(  # crowdlint: disable=CW604 -- exhaustive oracle the miner is tested against
    db: SequenceDatabase[Item],
    min_support: float,
    limits: MiningLimits = MiningLimits(max_length=4),
) -> List[SequentialPattern[Item]]:
    """Exhaustively mine frequent patterns (oracle semantics).

    ``limits.max_length`` must be set — unbounded enumeration is a bug, not
    a feature, in an oracle.
    """
    if limits.max_length is None:
        raise ValueError("bruteforce mining requires a max_length limit")
    n = len(db)
    if n == 0:
        return []
    min_count = db.min_count(min_support)

    candidates: Set[Tuple[Item, ...]] = set()
    for seq in db:
        candidates |= _subsequences_upto(seq, limits.max_length)

    results: List[SequentialPattern[Item]] = []
    # sort_patterns below imposes a total order (count, length, lexicographic),
    # so the hash order this loop appends in never reaches the output.
    for candidate in candidates:  # crowdlint: disable=CW203
        if len(candidate) < limits.min_length:
            continue
        count = sum(1 for seq in db if is_subsequence(candidate, seq))
        if count >= min_count:
            results.append(SequentialPattern(items=candidate, count=count, support=count / n))
    return sort_patterns(results)
