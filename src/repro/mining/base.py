"""Common types for sequential-pattern miners."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, Hashable, List, Optional, Sequence, Tuple, TypeVar

__all__ = [
    "SequentialPattern",
    "MiningLimits",
    "candidate_sort_key",
    "sort_patterns",
    "sorted_candidates",
]

Item = TypeVar("Item", bound=Hashable)


def candidate_sort_key(item):
    """Deterministic candidate-expansion order shared by the miners.

    Timed items (anything exposing ``label``/``bin``, i.e.
    :class:`~repro.sequences.items.TimedItem`) order by ``(label, bin)`` —
    the canonical report order of the modified algorithm.  Other item types
    keep their natural order.
    """
    label = getattr(item, "label", None)
    bin_index = getattr(item, "bin", None)
    if label is not None and bin_index is not None:
        return (label, bin_index)
    return item


def sorted_candidates(items: Sequence[Item]) -> List[Item]:
    """Sort candidate items for expansion: ``(label, bin)`` for timed items,
    natural order otherwise, with ``repr`` as the tie-safe fallback for
    heterogeneous item types that do not compare."""
    items = list(items)
    try:
        return sorted(items, key=candidate_sort_key)
    except TypeError:
        return sorted(items, key=repr)


@dataclass(frozen=True)
class SequentialPattern(Generic[Item]):
    """A mined frequent sequence with its support.

    ``count`` is the number of database sequences containing the pattern;
    ``support`` is ``count / |database|``.
    """

    items: Tuple[Item, ...]
    count: int
    support: float

    def __post_init__(self) -> None:
        if not self.items:
            raise ValueError("a pattern must contain at least one item")
        if self.count < 0:
            raise ValueError("count must be non-negative")
        if not (0.0 <= self.support <= 1.0 + 1e-12):
            raise ValueError(f"support {self.support} out of [0, 1]")

    def __len__(self) -> int:
        return len(self.items)

    def is_subpattern_of(self, other: "SequentialPattern[Item]") -> bool:
        """True when this pattern is a (gappy) subsequence of ``other``."""
        it = iter(other.items)
        return all(any(item == candidate for candidate in it) for item in self.items)


@dataclass(frozen=True)
class MiningLimits:
    """Shared structural limits across miners."""

    min_length: int = 1
    max_length: Optional[int] = None

    def __post_init__(self) -> None:
        if self.min_length < 1:
            raise ValueError("min_length must be >= 1")
        if self.max_length is not None and self.max_length < self.min_length:
            raise ValueError("max_length must be >= min_length")

    def admits_longer_than(self, length: int) -> bool:
        """Can patterns longer than ``length`` still be emitted?"""
        return self.max_length is None or length < self.max_length


def sort_patterns(patterns: Sequence[SequentialPattern]) -> List[SequentialPattern]:
    """Canonical report order: support desc, length desc, then lexicographic."""
    return sorted(
        patterns,
        key=lambda p: (-p.count, -len(p.items), tuple(repr(i) for i in p.items)),
    )
