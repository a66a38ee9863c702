"""The DBSCAN+RNN next-location pipeline (paper ref [10]), end to end.

Zhang et al.'s baseline consumes raw GPS traces: stay points are extracted
per day, pooled and clustered with DBSCAN into *significant places*, each
day becomes a sequence of place tokens, and an RNN predicts the next place.
This module wires those stages together from this library's own substrates
(:mod:`repro.sequences.staypoints`, :mod:`repro.geo.dbscan`,
:mod:`repro.prediction.rnn`).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date as date_type
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..geo import GeoPoint, NOISE, dbscan
from ..sequences.staypoints import Fix, StayPoint, detect_stay_points
from .base import NextPlacePredictor, prediction_examples
from .evaluate import PredictionReport
from .markov import MarkovPredictor
from .rnn import RNNPredictor

__all__ = ["DBSCANRNNConfig", "DBSCANRNNPipeline"]


@dataclass(frozen=True)
class DBSCANRNNConfig:
    """Stage parameters (defaults sized for walking-scale city traces)."""

    stay_distance_m: float = 150.0
    stay_duration_s: float = 15 * 60.0
    cluster_eps_m: float = 250.0
    cluster_min_samples: int = 3
    rnn_hidden: int = 32
    rnn_embed: int = 16
    rnn_epochs: int = 25
    seed: int = 0


class DBSCANRNNPipeline:
    """Trace → stay points → DBSCAN places → RNN sequence model.

    ``fit`` consumes ``{day: [fixes]}``; afterwards :meth:`predict_next`
    maps a partial day's fixes to the most likely next place cluster, and
    :meth:`evaluate` scores held-out days.
    """

    def __init__(self, config: DBSCANRNNConfig = DBSCANRNNConfig()) -> None:
        self.config = config
        self.cluster_centers: List[GeoPoint] = []
        self._day_sequences: Dict[date_type, List[int]] = {}
        self._model: Optional[NextPlacePredictor[int]] = None

    # ------------------------------------------------------------ plumbing

    def _stays_per_day(
        self, traces: Mapping[date_type, Sequence[Fix]]
    ) -> Dict[date_type, List[StayPoint]]:
        return {
            day: detect_stay_points(
                list(fixes), self.config.stay_distance_m, self.config.stay_duration_s
            )
            for day, fixes in traces.items()
        }

    def _assign_cluster(self, point: GeoPoint) -> Optional[int]:
        """Nearest significant place within the clustering radius, else None."""
        best: Optional[Tuple[float, int]] = None
        for i, center in enumerate(self.cluster_centers):
            d = point.fast_distance_to(center)
            if best is None or d < best[0]:
                best = (d, i)
        if best is None or best[0] > 2 * self.config.cluster_eps_m:
            return None
        return best[1]

    # ------------------------------------------------------------ training

    def fit(self, traces: Mapping[date_type, Sequence[Fix]]) -> "DBSCANRNNPipeline":
        stays_by_day = self._stays_per_day(traces)
        all_stays = [s for stays in stays_by_day.values() for s in stays]
        if not all_stays:
            raise ValueError("no stay points detected; check trace density/thresholds")

        labels = dbscan(
            [s.location for s in all_stays],
            eps_m=self.config.cluster_eps_m,
            min_samples=self.config.cluster_min_samples,
        ).labels
        # Cluster centers = mean of member stay points.
        from collections import defaultdict

        members: Dict[int, List[GeoPoint]] = defaultdict(list)
        for stay, label in zip(all_stays, labels):
            if label != NOISE:
                members[label].append(stay.location)
        from ..geo import centroid

        self.cluster_centers = [
            centroid(points) for _, points in sorted(members.items())
        ]
        if not self.cluster_centers:
            raise ValueError("DBSCAN found no significant places; lower min_samples")

        # Tokenize each day (noise stays snap to the nearest center).
        self._day_sequences = {}
        for day in sorted(stays_by_day):
            tokens: List[int] = []
            for stay in stays_by_day[day]:
                token = self._assign_cluster(stay.location)
                if token is not None and (not tokens or tokens[-1] != token):
                    tokens.append(token)
            if len(tokens) >= 1:
                self._day_sequences[day] = tokens

        sequences = [self._day_sequences[d] for d in sorted(self._day_sequences)]
        self._model = RNNPredictor(
            hidden_size=self.config.rnn_hidden,
            embed_size=self.config.rnn_embed,
            epochs=self.config.rnn_epochs,
            seed=self.config.seed,
        ).fit([seq for seq in sequences if len(seq) >= 2])
        return self

    @property
    def n_places(self) -> int:
        return len(self.cluster_centers)

    # ----------------------------------------------------------- inference

    def tokenize_fixes(self, fixes: Sequence[Fix]) -> List[int]:
        """A (possibly partial) day of fixes → place-token sequence."""
        if self._model is None:
            raise RuntimeError("pipeline is not fitted")
        stays = detect_stay_points(
            list(fixes), self.config.stay_distance_m, self.config.stay_duration_s
        )
        tokens: List[int] = []
        for stay in stays:
            token = self._assign_cluster(stay.location)
            if token is not None and (not tokens or tokens[-1] != token):
                tokens.append(token)
        return tokens

    def predict_next(self, fixes_so_far: Sequence[Fix], k: int = 1) -> List[GeoPoint]:
        """The ``k`` most likely next places, as cluster centers."""
        if self._model is None:
            raise RuntimeError("pipeline is not fitted")
        prefix = self.tokenize_fixes(fixes_so_far)
        tokens = self._model.predict(prefix, k=k)
        return [self.cluster_centers[t] for t in tokens]

    # ---------------------------------------------------------- evaluation

    def evaluate(
        self, traces: Mapping[date_type, Sequence[Fix]], compare_markov: bool = True
    ) -> Dict[str, PredictionReport]:
        """Accuracy on held-out daily traces (token-level, acc@1/@3).

        ``traces`` must be disjoint from the training days.  When
        ``compare_markov`` is set, an order-1 Markov chain trained on the
        same tokens is scored too (the classic sanity comparison).
        """
        if self._model is None:
            raise RuntimeError("pipeline is not fitted")
        test_sequences = []
        for day in sorted(traces):
            tokens = self.tokenize_fixes(traces[day])
            if len(tokens) >= 2:
                test_sequences.append(tokens)
        reports: Dict[str, PredictionReport] = {}
        train_sequences = [self._day_sequences[d] for d in sorted(self._day_sequences)]

        contenders: Dict[str, NextPlacePredictor[int]] = {"dbscan-rnn": self._model}
        if compare_markov:
            contenders["dbscan-markov"] = MarkovPredictor(1).fit(train_sequences)

        examples = prediction_examples(test_sequences)
        for name, model in contenders.items():
            hit1 = hit3 = 0
            for prefix, actual in examples:
                top3 = model.predict(prefix, k=3)
                hit1 += bool(top3 and top3[0] == actual)
                hit3 += actual in top3
            n = len(examples)
            reports[name] = PredictionReport(
                predictor=name,
                n_examples=n,
                accuracy_at_1=hit1 / n if n else 0.0,
                accuracy_at_3=hit3 / n if n else 0.0,
            )
        return reports
