"""One-shot experiment runner: the single path to every table and figure.

``run_all`` executes the full reproduction and writes, into one directory,
one SVG per figure, ``results.json`` with every measured family,
``MEASURED.md`` with the same families as markdown tables, and a
self-contained ``report.html``.  The ``results.json`` families:

==================================  =========================================
``dataset_stats``                   Table-D, dataset statistics (§I.1)
``preprocess``                      Fig. 2, the pre-processing funnel
``crowd_views`` / ``crowd_shift``   Figs. 3–4, the crowd at two windows
``sweep_rows``                      Figs. 5 and 7, the min_support sweep
``fig6_counts`` / ``fig8_lengths``  Figs. 6 and 8, per-user samples at 0.5
``ablations``                       design-choice ablations (DESIGN.md §5)
``crowd_forecast``                  out-of-sample scoring of the crowd view
``communities``                     behavioural communities
``ground_truth``                    pattern recovery vs. the generator
``event_detection``                 spike detection of an injected event
``prediction``                      next-place accuracy per abstraction level
``dbscan_rnn``                      the raw-trace baseline of ref [10]
``claims``                          claim name → holds (:mod:`.claims`)
==================================  =========================================
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from datetime import date, timedelta
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..crowd import (
    build_animation,
    detect_communities,
    detect_spikes,
    evaluate_crowd_forecast,
    similarity_links,
)
from ..data import (
    ActiveUserFilter,
    CheckInDataset,
    CityEvent,
    GenerationResult,
    SMALL_CONFIG,
    SynthConfig,
    dataset_stats,
    generate,
)
from ..geo import MicrocellGrid
from ..mining import ModifiedPrefixSpanConfig
from ..patterns import UserPatternProfile, detect_all_patterns
from ..pipeline import PipelineConfig, PipelineResult, run_pipeline
from ..taxonomy import build_default_taxonomy
from ..viz import Heatmap, HtmlReport, label_color_order, render_animated_crowd
from .ablations import (
    abstraction_ablation,
    binning_ablation,
    cell_size_ablation,
    day_kind_ablation,
    tolerance_ablation,
)
from .claims import calibration_misses, evaluate_claims
from .crowd_views import CrowdViewResult, crowd_views
from .figures import (
    DEFAULT_SUPPORTS,
    SupportSweepResult,
    fig5_chart,
    fig6_chart,
    fig7_chart,
    fig8_chart,
    run_support_sweep,
)
from .ground_truth import validate_against_ground_truth
from .prediction import dbscan_rnn_comparison, prediction_comparison

__all__ = ["ExperimentOutputs", "run_all", "small_pipeline_config"]

#: The event injected into a copy of the generated city for spike detection.
FESTIVAL = CityEvent(name="festival", day=date(2012, 5, 19),
                     venue_category="Stadium", attendance_prob=0.5)

#: The ablations mine at one fixed support so their rows compare.
_ABLATION_CONFIG = ModifiedPrefixSpanConfig(min_support=0.4)


def small_pipeline_config() -> PipelineConfig:
    """Pipeline knobs scaled for the small test dataset (2-month window)."""
    return PipelineConfig(
        window_months=2,
        activity=ActiveUserFilter(min_qualifying_days=25),
    )


@dataclass
class ExperimentOutputs:
    """Everything :func:`run_all` produced, in memory and on disk."""

    output_dir: Path
    dataset: CheckInDataset
    pipeline: PipelineResult
    sweep: SupportSweepResult
    views: CrowdViewResult
    #: The ``results.json`` payload.
    results: Dict[str, object]
    elapsed_s: float
    files: Dict[str, Path] = field(default_factory=dict)


def _synth_config(scale: str, seed: Optional[int]) -> SynthConfig:
    if scale == "paper":
        config = SynthConfig()
    elif scale == "small":
        config = SMALL_CONFIG
    else:
        raise ValueError(f"unknown scale {scale!r} (expected 'small' or 'paper')")
    return config if seed is None else replace(config, seed=seed)


def _ablations(result: PipelineResult) -> Dict[str, List[Dict[str, object]]]:
    dataset, taxonomy, binning = result.dataset, result.taxonomy, result.config.binning
    families = {
        "abstraction": abstraction_ablation(dataset, taxonomy, binning, _ABLATION_CONFIG),
        "bin_width": binning_ablation(dataset, taxonomy, config=_ABLATION_CONFIG),
        "cell_size": cell_size_ablation(dataset, taxonomy, binning, config=_ABLATION_CONFIG),
        "day_kind": day_kind_ablation(dataset, taxonomy, binning, _ABLATION_CONFIG),
        "time_tolerance": tolerance_ablation(dataset, taxonomy, binning),
    }
    return {name: [row.as_dict() for row in rows] for name, rows in families.items()}


def _crowd_forecast(dataset: CheckInDataset, config: PipelineConfig) -> Dict[str, float]:
    """Profiles mined on the first ¾ of the data, with the run's own window
    and activity filter, scored against the held-out last quarter."""
    lo, hi = dataset.time_range()
    cut = lo + (hi - lo) * 3 // 4
    result = run_pipeline(dataset.filter_time(lo, cut), config)
    holdout = dataset.filter_time(cut, hi).filter_users(result.profiles)
    ev = evaluate_crowd_forecast(result.aggregator, result.dataset, holdout, config.binning)
    return {
        "n_users": result.n_users,
        "n_days": ev.n_days,
        "time_lift": round(ev.time_lift, 2),
        "correlation": round(ev.correlation, 3),
        "baseline_correlation": round(ev.baseline_correlation, 3),
        "mae_forecast": round(ev.mae_forecast, 4),
        "mae_baseline": round(ev.mae_baseline, 4),
    }


def _communities(profiles: Dict[str, UserPatternProfile]) -> Dict[str, object]:
    communities = detect_communities(profiles, min_similarity=0.05)
    _, _, links = similarity_links(profiles, min_similarity=0.05)
    return {
        "n_profiled": len(profiles),
        "n_covered": len({uid for c in communities for uid in c.user_ids}),
        "n_links": int(np.triu(links).sum()),
        "sizes": [c.size for c in communities],
    }


def _ground_truth(
    generation: GenerationResult, result: PipelineResult, supports: Sequence[float]
) -> List[Dict[str, float]]:
    """Recall/precision of the mined items against the generating routines."""
    rows = []
    for support in supports:
        profiles = detect_all_patterns(
            result.dataset, result.taxonomy, result.config.level, result.config.binning,
            config=ModifiedPrefixSpanConfig(min_support=support),
        )
        summary = validate_against_ground_truth(
            generation, profiles, result.taxonomy, result.config.binning
        )
        rows.append({
            "min_support": support,
            "mean_recall": round(summary.mean_recall, 3),
            "mean_precision": round(summary.mean_precision, 3),
        })
    return rows


def _event_detection(config: SynthConfig) -> Dict[str, object]:
    """Regenerate the four weeks around :data:`FESTIVAL` with the festival
    injected into the run's city; is its day a spike?"""
    dataset = generate(replace(
        config, events=(FESTIVAL,),
        start_date=FESTIVAL.day - timedelta(days=14),
        end_date=FESTIVAL.day + timedelta(days=14),
    )).dataset
    grid = MicrocellGrid(dataset.bounding_box().expand(0.01), 750.0)
    spikes = detect_spikes(dataset, grid, z_threshold=4.0, min_count=5)
    hit = next((s for s in spikes if s.day == FESTIVAL.day), None)
    return {
        "n_spikes": len(spikes),
        "event_detected": hit is not None,
        "z_score": round(hit.z_score, 2) if hit else None,
    }


def _extra_figures(result: PipelineResult) -> Dict[str, str]:
    """The occupancy heatmap and the crowd animation, when there is a crowd."""
    figures: Dict[str, str] = {}
    occupancy = result.timeline.cell_occupancy_matrix()
    top_cells = sorted(occupancy, key=lambda c: -sum(occupancy[c]))[:25]
    if top_cells:
        figures["occupancy_heatmap.svg"] = Heatmap(
            "Crowd occupancy by microcell and hour",
            row_labels=[result.grid.cell(c).cell_id for c in top_cells],
            col_labels=[f"{h:02d}" for h in range(24)],
            values=[occupancy[c] for c in top_cells],
            x_label="hour of day",
        ).render()
    frames = build_animation(result.timeline, steps_per_transition=3)
    if frames and any(f.dots for f in frames):
        figures["crowd_animation.svg"] = render_animated_crowd(
            frames, result.grid, label_order=label_color_order(list(result.timeline)),
        )
    return figures


def run_all(
    output_dir: Union[str, Path],
    dataset: Optional[CheckInDataset] = None,
    pipeline_config: Optional[PipelineConfig] = None,
    supports: Sequence[float] = DEFAULT_SUPPORTS,
    scale: str = "small",
    seed: Optional[int] = None,
    include_prediction: bool = True,
) -> ExperimentOutputs:
    """Regenerate every experiment into ``output_dir``.

    ``scale="small"`` (default) uses the fast test dataset; ``scale="paper"``
    generates the full 1,083-user / 11-month dataset and raises
    ``ValueError`` if it misses the paper's Table-D by more than 10%.
    A caller-supplied ``dataset`` (e.g. the real Foursquare dump) has no
    generator behind it, so the ground-truth, event-detection and
    DBSCAN+RNN families are skipped.  ``include_prediction=False`` skips
    both prediction families, whose RNNs dominate the small-scale runtime.
    """
    t0 = time.time()
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    taxonomy = build_default_taxonomy()

    generation: Optional[GenerationResult] = None
    if dataset is None:
        generation = generate(_synth_config(scale, seed))
        dataset = generation.dataset
    if pipeline_config is None:
        pipeline_config = PipelineConfig() if scale == "paper" else small_pipeline_config()

    stats = dataset_stats(dataset)
    if scale == "paper" and generation is not None:
        misses = calibration_misses(stats)
        if misses:
            raise ValueError("paper-scale dataset misses Table-D: " + "; ".join(misses))

    result = run_pipeline(dataset, pipeline_config, taxonomy)
    sweep = run_support_sweep(
        result.dataset, taxonomy, supports,
        level=pipeline_config.level, binning=pipeline_config.binning,
        base_config=pipeline_config.mining,
    )
    views = crowd_views(result.timeline, hours=(9.5, 13.5))

    results: Dict[str, object] = {"dataset_stats": [list(r) for r in stats.as_rows()]}
    results["preprocess"] = [list(r) for r in result.report.as_rows()]
    results.update({
        "sweep_rows": sweep.to_rows(),
        "fig6_counts": sweep.sequence_counts_at(0.5),
        "fig8_lengths": sweep.avg_lengths_at(0.5),
        "crowd_views": [list(r) for r in views.summary_rows()],
        "crowd_shift": list(views.shift_scores),
        "ablations": _ablations(result),
        "crowd_forecast": _crowd_forecast(dataset, pipeline_config),
        "communities": _communities(result.profiles),
    })
    if generation is not None:
        results["ground_truth"] = _ground_truth(generation, result, supports)
        results["event_detection"] = _event_detection(generation.config)
    if include_prediction:
        results["prediction"] = prediction_comparison(result)
        if generation is not None:
            results["dbscan_rnn"] = dbscan_rnn_comparison(generation)
    results["claims"] = evaluate_claims(results)

    # Imported here, not at module top, so that running
    # ``python -m repro.experiments.report_markdown`` does not find the
    # module already imported by this package.
    from .report_markdown import measured_tables, render_measured_markdown

    figures = {
        "fig3_crowd_0900.svg": views.svgs[0],
        "fig4_crowd_1300.svg": views.svgs[-1],
        "fig5_sequences_vs_support.svg": fig5_chart(sweep),
        "fig6_sequence_count_distribution.svg": fig6_chart(sweep),
        "fig7_length_vs_support.svg": fig7_chart(sweep),
        "fig8_length_distribution.svg": fig8_chart(sweep),
        **_extra_figures(result),
    }
    texts = {
        **figures,
        "results.json": json.dumps(results, indent=1),
        "MEASURED.md": render_measured_markdown(results),
    }
    files: Dict[str, Path] = {}
    for name, text in texts.items():
        files[name] = output_dir / name
        files[name].write_text(text, encoding="utf-8")

    report = HtmlReport(
        "CrowdWeb reproduction — experiment report",
        subtitle=f"dataset: {dataset.name} ({len(dataset):,} check-ins, {dataset.n_users} users)",
    )
    for table in measured_tables(results):
        report.add_heading(table.title)
        report.add_table(table.headers, table.rows, caption=table.note)
    report.add_heading("Figures")
    for svg in figures.values():
        report.add_svg(svg)
    files["report.html"] = report.save(output_dir / "report.html")

    return ExperimentOutputs(
        output_dir=output_dir,
        dataset=dataset,
        pipeline=result,
        sweep=sweep,
        views=views,
        results=results,
        elapsed_s=time.time() - t0,
        files=files,
    )
