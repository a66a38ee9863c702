"""The three-phase CrowdWeb pipeline (Fig. 2), end to end.

``run_pipeline`` chains the framework's phases:

1. *data acquisition & pre-processing* — densest-window selection and
   active-user filtering (:mod:`repro.data.preprocess`);
2. *individual mobility pattern detection* — modified PrefixSpan per user
   (:mod:`repro.patterns`);
3. *crowd synchronization & aggregation* — placement, snapshots, timeline
   (:mod:`repro.crowd`).

The returned :class:`PipelineResult` is what the web platform, the CLI and
the experiment runner all consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from .crowd import CrowdAggregator, CrowdTimeline
from .data import ActiveUserFilter, CheckInDataset, PreprocessReport, preprocess
from .exec import ExecConfig
from .geo import MicrocellGrid
from .mining import ModifiedPrefixSpanConfig
from .obs import enable as obs_enable, get_observer
from .patterns import UserPatternProfile, detect_all_patterns
from .sequences import HOURLY, TimeBinning
from .taxonomy import AbstractionLevel, CategoryTree, build_default_taxonomy

__all__ = ["PipelineConfig", "PipelineResult", "run_pipeline"]


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the end-to-end pipeline, with paper defaults."""

    window_months: int = 3
    activity: ActiveUserFilter = field(default_factory=ActiveUserFilter)
    level: AbstractionLevel = AbstractionLevel.ROOT
    binning: TimeBinning = field(default_factory=lambda: HOURLY)
    mining: ModifiedPrefixSpanConfig = field(default_factory=ModifiedPrefixSpanConfig)
    closed_only: bool = True
    #: Mine all days, or condition the routines on "weekday"/"weekend".
    day_kind: str = "all"
    cell_size_m: float = 750.0
    pattern_tolerance: int = 0
    evidence_tolerance: int = 1
    #: Worker processes for per-user mining and per-window aggregation
    #: (in-process by default; ``ExecConfig(workers=n)`` fans out over ``n``
    #: worker processes with identical output).
    exec: ExecConfig = field(default_factory=ExecConfig)
    #: Turn on observability (:mod:`repro.obs`) for this run: one trace
    #: span per phase plus pipeline metrics, readable afterwards via
    #: ``repro.obs.get_observer()``.  Enabling is process-global and
    #: sticky (``repro.obs.disable()`` resets); when ``False`` — the
    #: default — the run joins an already-enabled observer but never
    #: creates one, and with observability fully off the pipeline output
    #: is byte-identical to the uninstrumented code path.
    obs: bool = False


@dataclass
class PipelineResult:
    """Everything the pipeline produced."""

    dataset: CheckInDataset  # the filtered dataset the later phases used
    report: PreprocessReport
    profiles: Dict[str, UserPatternProfile]
    grid: MicrocellGrid
    aggregator: CrowdAggregator
    timeline: CrowdTimeline
    taxonomy: CategoryTree
    config: PipelineConfig

    @property
    def n_users(self) -> int:
        return len(self.profiles)

    def profile(self, user_id: str) -> UserPatternProfile:
        try:
            return self.profiles[user_id]
        except KeyError:
            raise KeyError(f"user {user_id!r} not in pipeline output "
                           f"(did the activity filter drop them?)") from None


def run_pipeline(
    dataset: CheckInDataset,
    config: PipelineConfig = PipelineConfig(),
    taxonomy: Optional[CategoryTree] = None,
    profiles: Optional[Dict[str, UserPatternProfile]] = None,
) -> PipelineResult:
    """Run all three phases on a dataset and return the bundled result.

    ``profiles`` (e.g. from :func:`repro.persistence.load_profiles`) are
    already-mined user profiles: phase 2 is skipped and phases 1 and 3 run
    as configured.
    """
    taxonomy = taxonomy or build_default_taxonomy()
    if config.obs:
        obs_enable()
    o = get_observer()

    with o.span("pipeline.run", n_records=len(dataset), n_users=dataset.n_users):
        o.inc("repro_pipeline_runs_total")

        # Phase 1 — data acquisition & pre-processing.
        with o.span("pipeline.preprocess") as phase:
            filtered, report = preprocess(
                dataset, config.window_months, config.activity
            )
            if len(filtered) == 0:
                raise ValueError(
                    "preprocessing removed every record; relax the activity criteria "
                    f"(kept {filtered.n_users} users from {dataset.n_users})"
                )
            phase.set("n_records_kept", len(filtered))
            phase.set("n_users_kept", filtered.n_users)

        # Phase 2 — individual mobility pattern detection.
        if profiles is None:
            with o.span("pipeline.detect") as phase:
                profiles = detect_all_patterns(
                    filtered,
                    taxonomy,
                    level=config.level,
                    binning=config.binning,
                    config=config.mining,
                    closed_only=config.closed_only,
                    day_kind=config.day_kind,
                    exec_config=config.exec,
                )
                phase.set("n_users", len(profiles))
                phase.set("n_patterns", sum(p.n_patterns for p in profiles.values()))

        # Phase 3 — crowd synchronization & aggregation.
        with o.span("pipeline.aggregate") as phase:
            grid = MicrocellGrid(
                filtered.bounding_box().expand(0.002), config.cell_size_m
            )
            aggregator = CrowdAggregator(
                profiles,
                filtered,
                grid,
                taxonomy,
                binning=config.binning,
                pattern_tolerance=config.pattern_tolerance,
                evidence_tolerance=config.evidence_tolerance,
            )
            timeline = aggregator.timeline(exec_config=config.exec)
            phase.set("n_windows", len(timeline))

    return PipelineResult(
        dataset=filtered,
        report=report,
        profiles=profiles,
        grid=grid,
        aggregator=aggregator,
        timeline=timeline,
        taxonomy=taxonomy,
        config=config,
    )
