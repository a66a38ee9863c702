"""Next-place prediction baselines and evaluation."""

from .base import NextPlacePredictor, prediction_examples, split_sequences
from .dbscan_rnn import DBSCANRNNConfig, DBSCANRNNPipeline
from .evaluate import PredictionReport, compare_predictors, evaluate_predictor, pooled_report
from .frequency import FrequencyPredictor
from .markov import MarkovPredictor
from .pattern_based import PatternBasedPredictor
from .rnn import RNNPredictor

__all__ = [
    "DBSCANRNNConfig",
    "DBSCANRNNPipeline",
    "FrequencyPredictor",
    "MarkovPredictor",
    "NextPlacePredictor",
    "PatternBasedPredictor",
    "PredictionReport",
    "RNNPredictor",
    "compare_predictors",
    "evaluate_predictor",
    "pooled_report",
    "prediction_examples",
    "split_sequences",
]
