"""Mobility analytics: the regularity/predictability metrics the paper's
motivation rests on (Gonzalez et al. 2008; Song et al. 2010)."""

from .metrics import (
    UserMobilityMetrics,
    jump_lengths_m,
    lz_entropy_estimate,
    max_predictability,
    radius_of_gyration_m,
    random_entropy,
    regularity_by_hour,
    uncorrelated_entropy,
    user_mobility_metrics,
    visitation_frequencies,
)

__all__ = [
    "UserMobilityMetrics",
    "jump_lengths_m",
    "lz_entropy_estimate",
    "max_predictability",
    "radius_of_gyration_m",
    "random_entropy",
    "regularity_by_hour",
    "uncorrelated_entropy",
    "user_mobility_metrics",
    "visitation_frequencies",
]
