"""Next-place prediction accuracy — the paper's motivating numbers.

The introduction cites deep-learning next-POI accuracy of 8–25% as the
reason to visualize flexible patterns instead of predicting exact venues.
Two experiments reproduce that regime:

* :func:`prediction_comparison` scores every baseline, plus the
  pattern-based predictor, on the filtered users' held-out days at each
  abstraction level: exact venues are hard to predict, categories are not;
* :func:`dbscan_rnn_comparison` runs the raw-trace pipeline of ref [10]
  (GPS traces → stay points → DBSCAN places → RNN) on the most active
  simulated agent.
"""

from __future__ import annotations

from datetime import timedelta
from typing import Dict, List

from ..data.synth import GenerationResult, simulate_traces
from ..mining import ModifiedPrefixSpanConfig, SequentialPattern, modified_prefixspan
from ..pipeline import PipelineResult
from ..prediction import (
    DBSCANRNNConfig,
    DBSCANRNNPipeline,
    FrequencyPredictor,
    MarkovPredictor,
    PatternBasedPredictor,
    PredictionReport,
    RNNPredictor,
    compare_predictors,
    evaluate_predictor,
    pooled_report,
)
from ..sequences import build_user_database, make_labeler, sessionize_user
from ..taxonomy import AbstractionLevel

__all__ = ["dbscan_rnn_comparison", "prediction_comparison"]

#: Venue and leaf sit in the paper's exact-place regime; root is the
#: abstraction CrowdWeb visualizes.
PREDICTION_LEVELS = (AbstractionLevel.VENUE, AbstractionLevel.LEAF, AbstractionLevel.ROOT)

#: A user needs this many multi-visit days to be scored.
_MIN_DAYS = 8

_PATTERN_CONFIG = ModifiedPrefixSpanConfig(min_support=0.3)


def _day_sequences(result: PipelineResult, level: AbstractionLevel) -> Dict[str, List[List[str]]]:
    """Each scored user's multi-visit days as label sequences at ``level``."""
    labeler = make_labeler(result.taxonomy, level)
    out = {}
    for user_id in result.profiles:
        sessions = sessionize_user(result.dataset, user_id, labeler, result.config.binning)
        sequences = [[item.label for item in s.items] for s in sessions if len(s.items) >= 2]
        if len(sequences) >= _MIN_DAYS:
            out[user_id] = sequences
    return out


def _label_patterns(
    result: PipelineResult, user_id: str, level: AbstractionLevel
) -> List[SequentialPattern]:
    """The user's patterns mined at ``level``, in the label token space of
    :func:`_day_sequences` (the pipeline's own profiles are root-level)."""
    db = build_user_database(result.dataset, user_id, result.taxonomy, level,
                             result.config.binning)
    mined = modified_prefixspan(db, _PATTERN_CONFIG, taxonomy=result.taxonomy,
                                n_bins=result.config.binning.n_bins)
    return [
        SequentialPattern(items=tuple(i.label for i in p.items), count=p.count,
                          support=p.support)
        for p in mined
    ]


def _pattern_based_report(
    result: PipelineResult, level: AbstractionLevel,
    sequences_by_user: Dict[str, List[List[str]]],
) -> PredictionReport:
    """Per-user pattern-based predictors (each needs its own user's
    patterns, so no shared factory fits), pooled."""
    return pooled_report("pattern-based", [
        evaluate_predictor(PatternBasedPredictor(_label_patterns(result, uid, level)), seqs)
        for uid, seqs in sequences_by_user.items()
    ])


def prediction_comparison(result: PipelineResult) -> Dict[str, Dict[str, object]]:
    """Micro-averaged next-place accuracy of every predictor, per level.

    Returns ``level → {"n_users": …, "reports": predictor → row}``; a level
    with no scorable user has empty ``reports``.
    """
    factories = {
        "frequency": FrequencyPredictor,
        "markov-1": lambda: MarkovPredictor(1),
        "markov-2": lambda: MarkovPredictor(2),
        "rnn": lambda: RNNPredictor(epochs=8, seed=11),
    }
    out: Dict[str, Dict[str, object]] = {}
    for level in PREDICTION_LEVELS:
        sequences_by_user = _day_sequences(result, level)
        reports: Dict[str, PredictionReport] = {}
        if sequences_by_user:
            reports = compare_predictors(factories, sequences_by_user)
            reports["pattern-based"] = _pattern_based_report(result, level, sequences_by_user)
        out[level.value] = {
            "n_users": len(sequences_by_user),
            "reports": {name: rep.as_row() for name, rep in reports.items()},
        }
    return out


def dbscan_rnn_comparison(generation: GenerationResult) -> Dict[str, object]:
    """The ref [10] pipeline on 45 simulated days of the most active agent:
    fit on the first 34, scored on the rest."""
    agent = max(generation.agents, key=lambda a: a.checkin_prob)
    start = generation.config.start_date
    days = [start + timedelta(days=i) for i in range(45)]
    traces = simulate_traces([agent], generation.city, days, generation.config,
                             seed=5)[agent.user_id]
    ordered = sorted(traces)
    pipe = DBSCANRNNPipeline(DBSCANRNNConfig(rnn_epochs=20, seed=7)).fit(
        {d: traces[d] for d in ordered[:34]}
    )
    reports = pipe.evaluate({d: traces[d] for d in ordered[34:]})
    return {
        "n_places": pipe.n_places,
        "reports": {name: rep.as_row() for name, rep in reports.items()},
    }
