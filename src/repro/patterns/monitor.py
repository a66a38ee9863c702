"""Online routine conformance: match a day-in-progress against patterns.

The crowd-management applications the paper motivates need more than
retrospective mining — they need to know, *as the day unfolds*, whether a
user is following their routine, what they are expected to do next, and
when a routine has been missed.  ``PatternMonitor`` consumes today's visits
one at a time and tracks each mined pattern through the states

``pending`` → ``in_progress`` → ``completed``  (or → ``missed`` once the
pattern's next time bin has passed beyond tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from ..mining import SequentialPattern
from ..sequences import TimedItem
from .model import UserPatternProfile

__all__ = ["PatternState", "PatternProgress", "PatternMonitor"]


class PatternState(Enum):
    PENDING = "pending"          # nothing matched yet, first bin still ahead
    IN_PROGRESS = "in_progress"  # some items matched, next one still possible
    COMPLETED = "completed"      # every item matched
    MISSED = "missed"            # an unmatched item's bin has passed


@dataclass(frozen=True)
class PatternProgress:
    """Where one pattern stands right now."""

    pattern: SequentialPattern[TimedItem]
    matched: int  # leading items already observed
    state: PatternState

    @property
    def next_item(self) -> Optional[TimedItem]:
        if self.matched < len(self.pattern.items):
            return self.pattern.items[self.matched]
        return None


class PatternMonitor:
    """Tracks one user's day against their mined patterns.

    Parameters
    ----------
    profile:
        The user's mined pattern profile.
    tolerance_bins:
        Bin slack in both directions: an observed visit at bin ``b`` matches
        a pattern item at ``b ± tolerance``, and an item only becomes
        *missed* once the current bin exceeds ``item.bin + tolerance``.
    """

    def __init__(self, profile: UserPatternProfile, tolerance_bins: int = 1) -> None:
        if tolerance_bins < 0:
            raise ValueError("tolerance must be non-negative")
        self.profile = profile
        self.tolerance_bins = tolerance_bins
        self._matched: Dict[int, int] = {i: 0 for i in range(len(profile.patterns))}
        self._current_bin: Optional[int] = None

    # ------------------------------------------------------------ feeding

    def observe(self, item: TimedItem) -> None:
        """Feed one visit (bins must be non-decreasing within the day)."""
        if self._current_bin is not None and item.bin < self._current_bin:
            raise ValueError(
                f"observations must be chronological (got bin {item.bin} "
                f"after {self._current_bin})"
            )
        self._current_bin = item.bin
        for index, pattern in enumerate(self.profile.patterns):
            matched = self._matched[index]
            if matched >= len(pattern.items):
                continue
            expected = pattern.items[matched]
            if expected.label == item.label and abs(expected.bin - item.bin) <= self.tolerance_bins:
                self._matched[index] = matched + 1

    def advance_to(self, bin_index: int) -> None:
        """Move the clock forward without a visit (time passing)."""
        if self._current_bin is not None and bin_index < self._current_bin:
            raise ValueError("the clock cannot move backwards")
        self._current_bin = bin_index

    # ------------------------------------------------------------- status

    def _state_of(self, index: int) -> PatternState:
        pattern = self.profile.patterns[index]
        matched = self._matched[index]
        if matched >= len(pattern.items):
            return PatternState.COMPLETED
        next_item = pattern.items[matched]
        if self._current_bin is not None and self._current_bin > next_item.bin + self.tolerance_bins:
            return PatternState.MISSED
        if matched > 0:
            return PatternState.IN_PROGRESS
        return PatternState.PENDING

    def status(self) -> List[PatternProgress]:
        """Progress of every pattern, in profile (canonical) order."""
        return [
            PatternProgress(
                pattern=pattern,
                matched=self._matched[i],
                state=self._state_of(i),
            )
            for i, pattern in enumerate(self.profile.patterns)
        ]

    def expected_next(self) -> List[Tuple[TimedItem, SequentialPattern[TimedItem]]]:
        """Upcoming items of live (pending/in-progress) patterns, soonest
        first, strongest support breaking ties."""
        upcoming = []
        for progress in self.status():
            if progress.state in (PatternState.PENDING, PatternState.IN_PROGRESS):
                item = progress.next_item
                if item is not None:
                    upcoming.append((item, progress.pattern))
        upcoming.sort(key=lambda pair: (pair[0].bin, -pair[1].support, pair[0].label))
        return upcoming

    def conformance(self) -> float:
        """Support-weighted share of non-missed patterns in [0, 1].

        1.0 while the user is on script; drops as strong patterns get
        missed.  Empty profiles count as fully conformant (nothing to miss).
        """
        total = sum(p.support for p in self.profile.patterns)
        if total == 0:
            return 1.0
        live = sum(
            progress.pattern.support
            for progress in self.status()
            if progress.state is not PatternState.MISSED
        )
        return live / total

