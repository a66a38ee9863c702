"""The ``crowdweb`` command-line interface.

Subcommands
-----------
``generate``  synthesize a Foursquare-like dataset and write it to disk
``stats``     print the dataset-statistics table (paper §I.1)
``mine``      mine and print one user's mobility patterns
``crowd``     print the crowd snapshot of one time window
``figures``   regenerate every paper table and figure into an output directory
``serve``     run the web platform
``predict``   compare next-place predictors on a dataset
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from ..data import (
    ActiveUserFilter,
    SMALL_CONFIG,
    SynthConfig,
    dataset_stats,
    load_dataset,
    save_dataset,
    synthetic_dataset,
)
from ..exec import ExecConfig
from ..experiments import prediction_comparison, run_all, small_pipeline_config
from ..mining import ModifiedPrefixSpanConfig
from ..obs import enable as obs_enable, get_observer, render_metrics, \
    render_trace_tree, save_dump
from ..patterns import detect_user_patterns, summarize_profile
from ..pipeline import PipelineConfig, run_pipeline
from ..taxonomy import AbstractionLevel, build_default_taxonomy

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdweb",
        description="CrowdWeb reproduction: crowd mobility patterns in smart cities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workers_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=1, metavar="N",
                       help="worker processes for mining/aggregation "
                            "(1 = serial, 0 = all cores)")

    def add_trace_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace", action="store_true",
                       help="enable observability: print the trace tree and "
                            "metrics afterwards, and write the dump file "
                            "`python -m repro.obs` reads")

    p_generate = sub.add_parser("generate", help="synthesize a dataset")
    p_generate.add_argument("output", type=Path, help="output file (.tsv/.csv/.jsonl)")
    p_generate.add_argument("--scale", choices=["small", "paper"], default="small")
    p_generate.add_argument("--seed", type=int, default=None)

    p_stats = sub.add_parser("stats", help="dataset statistics table")
    p_stats.add_argument("dataset", type=Path)

    p_mine = sub.add_parser("mine", help="mine one user's patterns")
    p_mine.add_argument("dataset", type=Path)
    p_mine.add_argument("user_id")
    p_mine.add_argument("--min-support", type=float, default=0.5)
    p_mine.add_argument("--level", choices=["venue", "leaf", "root"], default="root")
    add_trace_flag(p_mine)

    p_crowd = sub.add_parser("crowd", help="crowd snapshot at one hour")
    p_crowd.add_argument("dataset", type=Path)
    p_crowd.add_argument("--hour", type=float, default=9.5)
    p_crowd.add_argument("--min-days", type=int, default=25,
                         help="activity-filter qualifying-day threshold")
    p_crowd.add_argument("--months", type=int, default=2,
                         help="densest-window length in months")
    add_workers_flag(p_crowd)
    add_trace_flag(p_crowd)

    p_figures = sub.add_parser("figures", help="regenerate all paper tables and figures")
    p_figures.add_argument("output_dir", type=Path)
    p_figures.add_argument("--scale", choices=["small", "paper"], default="small")
    p_figures.add_argument("--seed", type=int, default=None)

    p_serve = sub.add_parser("serve", help="run the web platform")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8460)
    p_serve.add_argument("--scale", choices=["small", "paper"], default="small")
    add_workers_flag(p_serve)

    p_predict = sub.add_parser("predict", help="compare next-place predictors")
    p_predict.add_argument("dataset", type=Path)
    p_predict.add_argument("--min-days", type=int, default=25)
    p_predict.add_argument("--months", type=int, default=2)
    add_workers_flag(p_predict)
    add_trace_flag(p_predict)

    p_export = sub.add_parser("export-spmf",
                              help="export a user's sequence DB + patterns in SPMF format")
    p_export.add_argument("dataset", type=Path)
    p_export.add_argument("user_id")
    p_export.add_argument("output", type=Path, help="output .spmf file")
    p_export.add_argument("--min-support", type=float, default=0.5)
    p_export.add_argument("--level", choices=["venue", "leaf", "root"], default="root")

    p_monitor = sub.add_parser("monitor",
                               help="replay a user's last day against their routine")
    p_monitor.add_argument("dataset", type=Path)
    p_monitor.add_argument("user_id")
    p_monitor.add_argument("--min-support", type=float, default=0.4)
    p_monitor.add_argument("--tolerance", type=int, default=1)

    p_audit = sub.add_parser("audit", help="data-quality audit of a dataset")
    p_audit.add_argument("dataset", type=Path)
    p_audit.add_argument("--strict", action="store_true",
                         help="exit non-zero on warnings too")

    p_analyze = sub.add_parser("analyze", help="mobility analytics per user")
    p_analyze.add_argument("dataset", type=Path)
    p_analyze.add_argument("--min-checkins", type=int, default=30)
    p_analyze.add_argument("--top", type=int, default=15,
                           help="show the N most predictable users")

    p_comm = sub.add_parser("communities", help="behavioural communities")
    p_comm.add_argument("dataset", type=Path)
    p_comm.add_argument("--min-days", type=int, default=25)
    p_comm.add_argument("--months", type=int, default=2)
    p_comm.add_argument("--min-similarity", type=float, default=0.05)
    add_workers_flag(p_comm)
    add_trace_flag(p_comm)

    return parser


def _cmd_generate(args) -> int:
    if args.scale == "paper":
        config = SynthConfig() if args.seed is None else SynthConfig(seed=args.seed)
    else:
        config = SMALL_CONFIG if args.seed is None else SynthConfig(
            **{**SMALL_CONFIG.__dict__, "seed": args.seed}
        )
    dataset = synthetic_dataset(config)
    save_dataset(dataset, args.output)
    print(f"wrote {len(dataset):,} check-ins ({dataset.n_users} users) to {args.output}")
    return 0


def _cmd_stats(args) -> int:
    dataset = load_dataset(args.dataset)
    for key, value in dataset_stats(dataset).as_rows():
        print(f"{key:>24}: {value}")
    return 0


def _cmd_mine(args) -> int:
    dataset = load_dataset(args.dataset)
    if not dataset.for_user(args.user_id):
        print(f"error: user {args.user_id!r} not in dataset", file=sys.stderr)
        return 2
    taxonomy = build_default_taxonomy()
    profile = detect_user_patterns(
        dataset,
        args.user_id,
        taxonomy,
        level=AbstractionLevel(args.level),
        config=ModifiedPrefixSpanConfig(min_support=args.min_support),
    )
    print(summarize_profile(profile, k=20))
    return 0


def _pipeline_for(args):
    dataset = load_dataset(args.dataset)
    config = PipelineConfig(
        window_months=args.months,
        activity=ActiveUserFilter(min_qualifying_days=args.min_days),
        exec=ExecConfig.from_workers(getattr(args, "workers", 1)),
    )
    return run_pipeline(dataset, config)


def _cmd_crowd(args) -> int:
    result = _pipeline_for(args)
    snap = result.timeline.at_hour(args.hour)
    print(f"window {snap.window.label}: {snap.n_users} users placed")
    for group in snap.groups(min_size=1)[:15]:
        cell = result.grid.cell(group.cell)
        center = cell.center
        print(
            f"  {group.label:<14} x{group.size:<3} cell {cell.cell_id} "
            f"({center.lat:.4f}, {center.lon:.4f}): {', '.join(group.user_ids[:6])}"
        )
    return 0


def _cmd_figures(args) -> int:
    out = run_all(args.output_dir, scale=args.scale, seed=args.seed)
    print(f"regenerated {len(out.files)} artifacts in {out.output_dir} "
          f"({out.elapsed_s:.1f}s)")
    for name in sorted(out.files):
        print(f"  {name}")
    failed = [name for name, holds in out.results["claims"].items() if not holds]
    if failed:
        print(f"claims that do not hold: {', '.join(failed)}")
    return 0


def _cmd_serve(args) -> int:
    from ..web.__main__ import main as web_main

    return web_main(["--host", args.host, "--port", str(args.port),
                     "--scale", args.scale, "--workers", str(args.workers)])


def _cmd_predict(args) -> int:
    comparison = prediction_comparison(_pipeline_for(args))
    if not any(payload["reports"] for payload in comparison.values()):
        print("no users with enough data to evaluate")
        return 1
    for level, payload in comparison.items():
        print(f"{level} level: {payload['n_users']} users, next-place prediction")
        print(f"{'predictor':<16}{'examples':>10}{'acc@1':>9}{'acc@3':>9}")
        for name, row in payload["reports"].items():
            print(f"{name:<16}{row['n_examples']:>10}{row['acc@1']:>9.1%}{row['acc@3']:>9.1%}")
    return 0


def _cmd_export_spmf(args) -> int:
    from ..mining import modified_prefixspan, write_spmf_database, write_spmf_patterns
    from ..sequences import build_user_database

    dataset = load_dataset(args.dataset)
    if not dataset.for_user(args.user_id):
        print(f"error: user {args.user_id!r} not in dataset", file=sys.stderr)
        return 2
    taxonomy = build_default_taxonomy()
    db = build_user_database(dataset, args.user_id, taxonomy,
                             AbstractionLevel(args.level))
    codec = write_spmf_database(db, args.output)
    patterns = modified_prefixspan(
        db, ModifiedPrefixSpanConfig(min_support=args.min_support), taxonomy
    )
    # Patterns may contain canonicalized items absent from raw sequences
    # under ancestor matching; export only codec-representable ones.
    exportable = [p for p in patterns
                  if all(item in codec for item in p.items)]
    patterns_path = args.output.with_suffix(args.output.suffix + ".patterns")
    write_spmf_patterns(exportable, codec, patterns_path)
    print(f"wrote {len(db)} sequences to {args.output} "
          f"and {len(exportable)} patterns to {patterns_path}")
    return 0


def _cmd_monitor(args) -> int:
    from ..data import CheckInDataset
    from ..patterns import PatternMonitor
    from ..sequences import make_labeler, sessionize_user

    dataset = load_dataset(args.dataset)
    records = dataset.for_user(args.user_id)
    if not records:
        print(f"error: user {args.user_id!r} not in dataset", file=sys.stderr)
        return 2
    taxonomy = build_default_taxonomy()
    # Mine on everything except the user's last recorded day.
    last_day = records[-1].local_date
    history = CheckInDataset(
        [c for c in records if c.local_date < last_day], dataset.venues,
        name="history",
    )
    profile = detect_user_patterns(
        history, args.user_id, taxonomy,
        config=ModifiedPrefixSpanConfig(min_support=args.min_support),
    )
    if profile.n_patterns == 0:
        print("no routine detected — nothing to monitor")
        return 1
    labeler = make_labeler(taxonomy, profile.level)
    today = CheckInDataset(
        [c for c in records if c.local_date == last_day], dataset.venues,
        name="today",
    )
    sessions = sessionize_user(today, args.user_id, labeler, profile.binning)
    monitor = PatternMonitor(profile, tolerance_bins=args.tolerance)
    print(f"replaying {last_day} against {profile.n_patterns} patterns:")
    for session in sessions:
        for item in session.items:
            monitor.observe(item)
            print(f"  {profile.binning.label(item.bin)}  {item.label:<16} "
                  f"conformance {monitor.conformance():.0%}")
    monitor.advance_to(profile.binning.n_bins - 1)
    for progress in monitor.status():
        labels = " → ".join(i.label for i in progress.pattern.items)
        print(f"  [{progress.state.value:<11}] {labels}")
    return 0


def _cmd_audit(args) -> int:
    from ..data import audit_dataset

    dataset = load_dataset(args.dataset)
    report = audit_dataset(dataset, build_default_taxonomy())
    print(report.summary())
    if not report.ok:
        return 1
    if args.strict and report.warnings:
        return 1
    return 0


def _cmd_analyze(args) -> int:
    import numpy as np

    from ..analysis import user_mobility_metrics

    dataset = load_dataset(args.dataset)
    rows = []
    for uid in dataset.user_ids():
        if len(dataset.for_user(uid)) >= args.min_checkins:
            rows.append(user_mobility_metrics(dataset, uid))
    if not rows:
        print("no users with enough check-ins")
        return 1
    rows.sort(key=lambda m: -m.predictability_bound)
    bounds = [m.predictability_bound for m in rows]
    print(f"{len(rows)} users analyzed; median predictability bound "
          f"{np.median(bounds):.0%}")
    print(f"{'user':<8}{'checkins':>9}{'venues':>8}{'rg(km)':>8}"
          f"{'S_est':>7}{'Pi_max':>8}")
    for m in rows[:args.top]:
        print(f"{m.user_id:<8}{m.n_checkins:>9}{m.n_distinct_venues:>8}"
              f"{m.radius_of_gyration_m / 1000:>8.1f}{m.s_estimated:>7.2f}"
              f"{m.predictability_bound:>8.0%}")
    return 0


def _cmd_communities(args) -> int:
    from collections import Counter

    from ..crowd import detect_communities

    result = _pipeline_for(args)
    communities = detect_communities(result.profiles,
                                     min_similarity=args.min_similarity)
    print(f"{len(communities)} communities over {result.n_users} users")
    for community in communities:
        labels = Counter()
        for uid in community.user_ids:
            labels.update(result.profiles[uid].labels())
        themes = ", ".join(label for label, _ in labels.most_common(3)) or "-"
        print(f"  #{community.community_id} x{community.size}: "
              f"{', '.join(community.user_ids[:8])} — {themes}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "mine": _cmd_mine,
    "crowd": _cmd_crowd,
    "figures": _cmd_figures,
    "serve": _cmd_serve,
    "predict": _cmd_predict,
    "analyze": _cmd_analyze,
    "audit": _cmd_audit,
    "communities": _cmd_communities,
    "export-spmf": _cmd_export_spmf,
    "monitor": _cmd_monitor,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    traced = getattr(args, "trace", False)
    if traced:
        obs_enable()
    code = _COMMANDS[args.command](args)
    if traced:
        observer = get_observer()
        print()
        print(render_trace_tree(observer.tracer.export()))
        print()
        print(render_metrics(observer.registry.snapshot()))
        path = save_dump(observer)
        print(f"\nobservability dump written to {path} "
              f"(inspect with `python -m repro.obs`)")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
