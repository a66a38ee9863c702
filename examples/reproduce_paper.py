"""Regenerate every table and figure of the paper in one command.

Run:
    python examples/reproduce_paper.py                 # fast, small scale
    python examples/reproduce_paper.py --scale paper   # full 1,083 users (~1 min)

Artifacts land in ``./paper_artifacts``: one SVG per figure, results.json
with every measured number, MEASURED.md with the same numbers as tables
(ending with which of the paper's claims hold), and a self-contained
report.html.
"""

import argparse
import sys

from repro import run_all


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=["small", "paper"], default="small")
    parser.add_argument("--out", default="paper_artifacts")
    args = parser.parse_args(argv)

    print(f"reproducing all experiments at {args.scale} scale ...")
    outputs = run_all(args.out, scale=args.scale)

    print(f"\ndone in {outputs.elapsed_s:.1f}s — artifacts in {outputs.output_dir}/")
    print("\ndataset statistics (paper §I.1):")
    for key, value in outputs.results["dataset_stats"]:
        print(f"  {key:>24}: {value}")
    print("\nsupport sweep (Figs. 5 & 7):")
    for row in outputs.sweep.to_rows():
        print(f"  min_support={row['min_support']:<6g} "
              f"seq/user={row['mean_sequences_per_user']:<8.2f} "
              f"avg len={row['mean_avg_length']:.2f}")
    print("\ncrowd views (Figs. 3-4):")
    for label, users, cells in outputs.views.summary_rows():
        print(f"  {label}: {users} users / {cells} cells")
    print("\npaper claims:")
    for name, holds in outputs.results["claims"].items():
        print(f"  {'holds' if holds else 'FAILS':>5}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
