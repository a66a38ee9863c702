"""Render a ``results.json`` into the measured-results tables.

:func:`~repro.experiments.run_all` writes ``results.json`` and, from it,
``MEASURED.md`` in the same output directory; ``report.html`` embeds the
same tables.  :func:`measured_tables` is the one place that turns each
results family into a titled table, so the two reports cannot drift.

Re-render an existing file with
``python -m repro.experiments.report_markdown --results OUT/results.json``.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median
from typing import Dict, List, Mapping, NamedTuple, Sequence

from .claims import PAPER_CLAIMS

__all__ = ["main", "measured_tables", "render_measured_markdown"]


class _MeasuredTable(NamedTuple):
    """One results family as a table; ``note`` is a line printed under it."""

    title: str
    headers: List[str]
    rows: List[List[object]]
    note: str = ""


def _pct(value: float) -> str:
    return f"{value:.1%}"


def _distribution(values: Sequence[float]) -> List[List[object]]:
    if not values:
        return [[0, "", "", "", ""]]
    return [[len(values), f"{min(values):g}", f"{median(values):g}",
             f"{sum(values) / len(values):.2f}", f"{max(values):g}"]]


def _report_rows(reports: Mapping[str, Mapping[str, float]]) -> List[List[object]]:
    return [[name, row["n_examples"], _pct(row["acc@1"]), _pct(row["acc@3"])]
            for name, row in reports.items()]


def measured_tables(results: Mapping[str, object]) -> List[_MeasuredTable]:
    """Every family present in ``results``, in the paper's order."""
    r = results
    out: List[_MeasuredTable] = []
    if "dataset_stats" in r:
        out.append(_MeasuredTable("Table-D — dataset statistics (paper §I.1)",
                                 ["metric", "value"], r["dataset_stats"]))
    if "preprocess" in r:
        out.append(_MeasuredTable("Fig. 2 — pre-processing funnel",
                                 ["step", "value"], r["preprocess"]))
    if "crowd_views" in r:
        shifts = ", ".join(f"{s:.2f}" for s in r.get("crowd_shift", []))
        out.append(_MeasuredTable("Figs. 3–4 — crowd views",
                                 ["window", "users", "occupied cells"], r["crowd_views"],
                                 f"Crowd shift between views (Jaccard distance): {shifts}"))
    if "sweep_rows" in r:
        out.append(_MeasuredTable(
            "Figs. 5 and 7 — support sweep",
            ["min_support", "mean seq/user", "mean avg length"],
            [[f"{row['min_support']:g}", f"{row['mean_sequences_per_user']:.2f}",
              f"{row['mean_avg_length']:.2f}"] for row in r["sweep_rows"]],
        ))
    stats_headers = ["users", "min", "median", "mean", "max"]
    if "fig6_counts" in r:
        out.append(_MeasuredTable("Fig. 6 — sequences per user at min_support 0.5",
                                 stats_headers, _distribution(r["fig6_counts"])))
    if "fig8_lengths" in r:
        out.append(_MeasuredTable("Fig. 8 — avg pattern length per user at min_support 0.5",
                                 stats_headers, _distribution(r["fig8_lengths"])))
    if "prediction" in r:
        for level, payload in r["prediction"].items():
            out.append(_MeasuredTable(
                f"Next-place prediction — {level} level",
                ["predictor", "examples", "acc@1", "acc@3"],
                _report_rows(payload["reports"]),
                f"{payload['n_users']} users with enough multi-visit days",
            ))
    if "dbscan_rnn" in r:
        payload = r["dbscan_rnn"]
        out.append(_MeasuredTable("DBSCAN+RNN baseline (ref [10])",
                                 ["predictor", "examples", "acc@1", "acc@3"],
                                 _report_rows(payload["reports"]),
                                 f"{payload['n_places']} significant places"))
    if "ground_truth" in r:
        out.append(_MeasuredTable(
            "Ground-truth pattern recovery",
            ["min_support", "recall", "precision"],
            [[f"{row['min_support']:g}", _pct(row["mean_recall"]),
              _pct(row["mean_precision"])] for row in r["ground_truth"]],
        ))
    for key, title in (("crowd_forecast", "Out-of-sample crowd forecast"),
                       ("communities", "Behavioural communities"),
                       ("event_detection", "Event spike detection")):
        if key in r:
            out.append(_MeasuredTable(title, ["metric", "value"],
                                      [[k, v] for k, v in r[key].items()]))
    for name, rows in r.get("ablations", {}).items():
        headers = list(dict.fromkeys(column for row in rows for column in row))
        out.append(_MeasuredTable(f"Ablation — {name.replace('_', ' ')}", headers,
                                 [[row.get(h, "") for h in headers] for row in rows]))
    if "claims" in r:
        texts = {claim.name: claim.text for claim in PAPER_CLAIMS}
        out.append(_MeasuredTable(
            "Paper claims", ["claim", "statement", "holds"],
            [[name, texts.get(name, ""), "yes" if holds else "NO"]
             for name, holds in r["claims"].items()],
        ))
    return out


def _markdown_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(v) for v in row) + " |")
    return lines


def render_measured_markdown(results: Mapping[str, object]) -> str:
    """``MEASURED.md``: one section per family present in ``results``."""
    out: List[str] = ["# Measured results", ""]
    for table in measured_tables(results):
        out += [f"## {table.title}", ""]
        out += _markdown_table(table.headers, table.rows)
        out += ["", table.note, ""] if table.note else [""]
    return "\n".join(out)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--results", type=Path, default=Path("results.json"))
    parser.add_argument("--out", type=Path, default=None,
                        help="write to a file instead of stdout")
    args = parser.parse_args(argv)
    results: Dict = json.loads(Path(args.results).read_text(encoding="utf-8"))
    text = render_measured_markdown(results)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
