"""Experiment drivers: one module per paper table/figure family."""

from .ablations import (
    AblationRow,
    abstraction_ablation,
    activity_filter_ablation,
    binning_ablation,
    cell_size_ablation,
    day_kind_ablation,
    tolerance_ablation,
)
from .claims import PAPER_CLAIMS, calibration_misses, evaluate_claims
from .crowd_views import CrowdViewResult, crowd_shift, crowd_views
from .ground_truth import (
    UserValidation,
    ValidationSummary,
    validate_against_ground_truth,
)
from .figures import (
    DEFAULT_SUPPORTS,
    SupportSweepResult,
    fig5_chart,
    fig6_chart,
    fig7_chart,
    fig8_chart,
    run_support_sweep,
)
from .prediction import dbscan_rnn_comparison, prediction_comparison
from .runner import ExperimentOutputs, run_all, small_pipeline_config

__all__ = [
    "AblationRow",
    "CrowdViewResult",
    "DEFAULT_SUPPORTS",
    "PAPER_CLAIMS",
    "ExperimentOutputs",
    "SupportSweepResult",
    "UserValidation",
    "ValidationSummary",
    "abstraction_ablation",
    "activity_filter_ablation",
    "binning_ablation",
    "calibration_misses",
    "cell_size_ablation",
    "crowd_shift",
    "crowd_views",
    "day_kind_ablation",
    "dbscan_rnn_comparison",
    "evaluate_claims",
    "fig5_chart",
    "fig6_chart",
    "fig7_chart",
    "fig8_chart",
    "prediction_comparison",
    "run_all",
    "run_support_sweep",
    "small_pipeline_config",
    "tolerance_ablation",
    "validate_against_ground_truth",
]
