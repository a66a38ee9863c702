"""Prediction evaluation harness: accuracy@k over held-out days."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Mapping, Sequence, TypeVar

from .base import NextPlacePredictor, prediction_examples, split_sequences

__all__ = ["PredictionReport", "compare_predictors", "evaluate_predictor", "pooled_report"]

Token = TypeVar("Token", bound=Hashable)


@dataclass(frozen=True)
class PredictionReport:
    """Accuracy of one predictor on one user's held-out days."""

    predictor: str
    n_examples: int
    accuracy_at_1: float
    accuracy_at_3: float

    def as_row(self) -> Dict[str, float]:
        return {
            "predictor": self.predictor,
            "n_examples": self.n_examples,
            "acc@1": round(self.accuracy_at_1, 4),
            "acc@3": round(self.accuracy_at_3, 4),
        }


def evaluate_predictor(
    predictor: NextPlacePredictor[Token],
    sequences: Sequence[Sequence[Token]],
    train_frac: float = 0.7,
) -> PredictionReport:
    """Chronological-split evaluation of a single predictor.

    The predictor is fit on the early days and scored on (prefix, next)
    examples from the late days.
    """
    train, test = split_sequences(sequences, train_frac)
    predictor.fit(train)
    examples = prediction_examples(test)
    if not examples:
        return PredictionReport(predictor=predictor.name, n_examples=0,
                                accuracy_at_1=0.0, accuracy_at_3=0.0)
    hit1 = hit3 = 0
    for prefix, actual in examples:
        top3 = predictor.predict(prefix, k=3)
        if top3 and top3[0] == actual:
            hit1 += 1
        if actual in top3:
            hit3 += 1
    n = len(examples)
    return PredictionReport(
        predictor=predictor.name,
        n_examples=n,
        accuracy_at_1=hit1 / n,
        accuracy_at_3=hit3 / n,
    )


def pooled_report(name: str, reports: Sequence[PredictionReport]) -> PredictionReport:
    """Micro-average per-user reports: every held-out example counts once."""
    n = sum(r.n_examples for r in reports)
    hit1 = sum(round(r.accuracy_at_1 * r.n_examples) for r in reports)
    hit3 = sum(round(r.accuracy_at_3 * r.n_examples) for r in reports)
    return PredictionReport(
        predictor=name,
        n_examples=n,
        accuracy_at_1=hit1 / n if n else 0.0,
        accuracy_at_3=hit3 / n if n else 0.0,
    )


def compare_predictors(
    factories: Mapping[str, Callable[[], NextPlacePredictor[Token]]],
    sequences_by_user: Mapping[str, Sequence[Sequence[Token]]],
    train_frac: float = 0.7,
) -> Dict[str, PredictionReport]:
    """Evaluate several predictors over many users; micro-averaged accuracy.

    ``factories`` maps a display name to a zero-arg constructor so each user
    gets a freshly initialized model.
    """
    return {
        name: pooled_report(name, [
            evaluate_predictor(factory(), sequences, train_frac)
            for sequences in sequences_by_user.values()
        ])
        for name, factory in factories.items()
    }
