"""Dataset substrate: records, I/O, statistics, preprocessing, synthesis."""

from .io import (
    load_dataset,
    read_csv,
    read_foursquare_tsv,
    read_jsonl,
    save_dataset,
    write_csv,
    write_foursquare_tsv,
    write_jsonl,
)
from .preprocess import (
    ActiveUserFilter,
    PreprocessReport,
    densest_window,
    filter_active_users,
    preprocess,
)
from .quality import QualityIssue, QualityReport, Severity, audit_dataset
from .records import CheckIn, CheckInColumns, CheckInDataset, Venue
from .stats import (
    DatasetStats,
    dataset_stats,
    monthly_counts,
)
from .synth import (
    SMALL_CONFIG,
    CityEvent,
    GenerationResult,
    SynthConfig,
    generate,
    small_dataset,
    synthetic_dataset,
)

__all__ = [
    "ActiveUserFilter",
    "CheckIn",
    "CheckInColumns",
    "CityEvent",
    "CheckInDataset",
    "DatasetStats",
    "GenerationResult",
    "PreprocessReport",
    "QualityIssue",
    "QualityReport",
    "SMALL_CONFIG",
    "Severity",
    "SynthConfig",
    "Venue",
    "audit_dataset",
    "dataset_stats",
    "densest_window",
    "filter_active_users",
    "generate",
    "load_dataset",
    "monthly_counts",
    "preprocess",
    "read_csv",
    "read_foursquare_tsv",
    "read_jsonl",
    "save_dataset",
    "small_dataset",
    "synthetic_dataset",
    "write_csv",
    "write_foursquare_tsv",
    "write_jsonl",
]
