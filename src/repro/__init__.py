"""CrowdWeb reproduction: crowd mobility patterns in smart cities.

A full reimplementation of *CrowdWeb: A Visualization Tool for Mobility
Patterns in Smart Cities* (Zheng et al., ICDCS 2023): a synthetic
Foursquare-like data substrate, flexible mobility-pattern mining (modified
PrefixSpan), crowd synchronization/aggregation over a microcell grid, and a
dependency-free visualization platform.

Quickstart::

    from repro import small_dataset, run_pipeline, small_pipeline_config

    dataset = small_dataset()
    result = run_pipeline(dataset, small_pipeline_config())
    snapshot = result.timeline.at_hour(9.5)
    print(snapshot.n_users, "users in the city at 9-10 am")
"""

from importlib import import_module as _import_module
from typing import TYPE_CHECKING as _TYPE_CHECKING

if _TYPE_CHECKING:  # at run time, ``__getattr__`` below imports these on first use
    from .analysis import max_predictability, user_mobility_metrics
    from .data import (
        CheckIn,
        CheckInDataset,
        SMALL_CONFIG,
        SynthConfig,
        Venue,
        dataset_stats,
        load_dataset,
        save_dataset,
        small_dataset,
        synthetic_dataset,
    )
    from .experiments import run_all, small_pipeline_config
    from .mining import ModifiedPrefixSpanConfig, modified_prefixspan, prefixspan
    from .patterns import detect_all_patterns, detect_user_patterns, summarize_profile
    from .pipeline import PipelineConfig, PipelineResult, run_pipeline
    from .taxonomy import AbstractionLevel, build_default_taxonomy

#: The subpackage each re-exported name comes from.  Names resolve on first
#: access (PEP 562), so ``import repro.data`` imports neither the experiments
#: nor the crowd layer.
_EXPORTS = {
    "analysis": ("max_predictability", "user_mobility_metrics"),
    "data": ("CheckIn", "CheckInDataset", "SMALL_CONFIG", "SynthConfig", "Venue",
             "dataset_stats", "load_dataset", "save_dataset", "small_dataset",
             "synthetic_dataset"),
    "experiments": ("run_all", "small_pipeline_config"),
    "mining": ("ModifiedPrefixSpanConfig", "modified_prefixspan", "prefixspan"),
    "patterns": ("detect_all_patterns", "detect_user_patterns", "summarize_profile"),
    "pipeline": ("PipelineConfig", "PipelineResult", "run_pipeline"),
    "taxonomy": ("AbstractionLevel", "build_default_taxonomy"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SOURCE})


__version__ = "1.0.0"

__all__ = [
    "AbstractionLevel",
    "CheckIn",
    "CheckInDataset",
    "ModifiedPrefixSpanConfig",
    "PipelineConfig",
    "PipelineResult",
    "SMALL_CONFIG",
    "SynthConfig",
    "Venue",
    "__version__",
    "build_default_taxonomy",
    "dataset_stats",
    "detect_all_patterns",
    "detect_user_patterns",
    "load_dataset",
    "max_predictability",
    "modified_prefixspan",
    "prefixspan",
    "run_all",
    "run_pipeline",
    "save_dataset",
    "small_dataset",
    "small_pipeline_config",
    "summarize_profile",
    "synthetic_dataset",
    "user_mobility_metrics",
]
