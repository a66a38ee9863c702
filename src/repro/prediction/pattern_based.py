"""Pattern-based prediction: reuse the mined flexible patterns as a model.

If a user's routine says "Eatery around noon, then Work", then after an
Eatery visit the best guess for what comes next is Work.  This predictor
matches the day-so-far against the user's mined patterns (longest matched
prefix, then support, decides) and falls back to a Markov chain when no
pattern speaks — demonstrating that the artifact CrowdWeb computes for
*visualization* also carries predictive signal.
"""

from __future__ import annotations

from typing import Hashable, List, Sequence, Set, Tuple, TypeVar

from ..mining import SequentialPattern
from .base import NextPlacePredictor
from .markov import MarkovPredictor

__all__ = ["PatternBasedPredictor"]

Token = TypeVar("Token", bound=Hashable)


class PatternBasedPredictor(NextPlacePredictor[Token]):
    """Predicts from mined sequential patterns, with Markov backoff.

    Parameters
    ----------
    patterns:
        The user's mined patterns over the same token space as the
        sequences (labels, or (bin, label) items).
    fallback_order:
        Order of the backoff Markov chain trained in :meth:`fit`.
    """

    name = "pattern-based"

    def __init__(
        self,
        patterns: Sequence[SequentialPattern[Token]],
        fallback_order: int = 1,
    ) -> None:
        self.patterns = list(patterns)
        self._fallback: MarkovPredictor[Token] = MarkovPredictor(order=fallback_order)

    def fit(self, sequences: Sequence[Sequence[Token]]) -> "PatternBasedPredictor[Token]":
        self._fallback.fit(sequences)
        return self

    @staticmethod
    def _matched_prefix_len(pattern_items: Tuple[Token, ...], prefix: Sequence[Token]) -> int:
        """How many leading pattern items occur (in order) in ``prefix``."""
        matched = 0
        it = iter(prefix)
        for item in pattern_items:
            if any(item == tok for tok in it):
                matched += 1
            else:
                break
        return matched

    def predict(self, prefix: Sequence[Token], k: int = 1) -> List[Token]:
        if k < 1:
            raise ValueError("k must be >= 1")
        # Score each pattern's *next* item by (matched prefix length, support).
        scored: List[Tuple[int, float, Token]] = []
        for pattern in self.patterns:
            matched = self._matched_prefix_len(pattern.items, prefix)
            if matched < len(pattern.items):
                next_token = pattern.items[matched]
                # Require at least one matched item unless the pattern is a
                # single item (then it is a prior over likely places).
                if matched > 0 or len(pattern.items) == 1:
                    scored.append((matched, pattern.support, next_token))
        scored.sort(key=lambda s: (-s[0], -s[1], repr(s[2])))
        ranked: List[Token] = []
        seen: Set[Token] = set()
        for _, _, token in scored:
            if token not in seen:
                seen.add(token)
                ranked.append(token)
                if len(ranked) == k:
                    return ranked
        for token in self._fallback.predict(prefix, k=k + len(ranked)):
            if token not in seen:
                seen.add(token)
                ranked.append(token)
                if len(ranked) == k:
                    break
        return ranked[:k]
