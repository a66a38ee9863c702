"""Individual mobility patterns: profiles, graphs, similarity, summaries."""

from .graph import PlaceGraph, build_place_graph
from .model import UserPatternProfile, detect_all_patterns, detect_user_patterns
from .monitor import PatternMonitor, PatternProgress, PatternState
from .similarity import (
    jaccard_similarity,
    pattern_set_similarity,
    profile_similarity_matrix,
)
from .summarize import describe_pattern, summarize_profile

__all__ = [
    "PatternMonitor",
    "PatternProgress",
    "PatternState",
    "PlaceGraph",
    "UserPatternProfile",
    "build_place_graph",
    "describe_pattern",
    "detect_all_patterns",
    "detect_user_patterns",
    "jaccard_similarity",
    "pattern_set_similarity",
    "profile_similarity_matrix",
    "summarize_profile",
]
