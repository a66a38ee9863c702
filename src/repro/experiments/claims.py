"""The paper's claims, checked against one ``results.json``.

Every claim the reproduction makes about a table or figure is a named
predicate over the results dict :func:`~repro.experiments.run_all` writes.
``run_all`` records :func:`evaluate_claims` in ``results.json`` and
``MEASURED.md``, so every scale reports which claims hold; the tier-1
tests require all of them at small scale.

The paper-scale calibration of Table-D is different: it is not a shape
but an absolute target, and ``run_all(scale="paper")`` fails when
:func:`calibration_misses` finds one.
"""

from __future__ import annotations

from statistics import median
from typing import Callable, Dict, List, Mapping, NamedTuple

from ..data import DatasetStats

__all__ = ["PAPER_CLAIMS", "calibration_misses", "evaluate_claims"]

Results = Mapping[str, object]

#: Table-D of the paper (Foursquare NYC, §I.1): metric → value.
PAPER_TABLE_D: Dict[str, float] = {
    "check-ins": 227_428,
    "users": 1_083,
    "mean records/user": 210,
    "median records/user": 153,
}


class _Claim(NamedTuple):
    """One checkable statement: ``check`` runs when ``family`` is present."""

    name: str
    family: str
    text: str
    check: Callable[[Results], bool]


def _num(value: object) -> float:
    """A table cell such as ``"3,859"`` or ``"210.3"`` as a number."""
    return float(str(value).replace(",", ""))


def _table_d(r: Results) -> bool:
    rows = dict(r["dataset_stats"])
    return (
        rows["sparse (<1/user/day)"] == "yes"
        and _num(rows["median records/user"]) <= _num(rows["mean records/user"])
        and rows["densest 3 months"] == "2012-04 2012-05 2012-06"
    )


def _funnel(r: Results) -> bool:
    rows = {key: _num(value) for key, value in r["preprocess"] if key != "densest window"}
    return (
        rows["output check-ins"] <= rows["window check-ins"] <= rows["input check-ins"]
        and 0 < rows["active users kept"] <= rows["window users"]
    )


def _crowd_moves(r: Results) -> bool:
    _, morning_users, _ = r["crowd_views"][0]
    return morning_users > 0 and r["crowd_shift"][0] > 0.0


def _series(r: Results, column: str) -> List[float]:
    return [row[column] for row in r["sweep_rows"]]


def _fig5(r: Results) -> bool:
    ys = _series(r, "mean_sequences_per_user")
    mid = len(ys) // 2
    return (
        all(a >= b for a, b in zip(ys, ys[1:]))
        and ys[0] > ys[-1]
        and ys[0] - ys[mid] >= ys[mid] - ys[-1]
    )


def _fig6(r: Results) -> bool:
    counts = r["fig6_counts"]
    # Right skew needs a real sample; the small world has a handful of users.
    skewed = len(counts) < 30 or sum(counts) / len(counts) >= median(counts)
    return bool(counts) and min(counts) >= 0 and skewed


def _fig7(r: Results) -> bool:
    ys = _series(r, "mean_avg_length")
    return ys[0] >= ys[-1] and ys[0] > 1.0


def _fig8(r: Results) -> bool:
    lengths = r["fig8_lengths"]
    return bool(lengths) and min(lengths) >= 1.0 and median(lengths) <= 3.0


def _ablation(r: Results, name: str) -> Dict[str, float]:
    """One mining ablation's sequences/user by setting."""
    return {row["setting"]: row["mean_sequences_per_user"] for row in r["ablations"][name]}


def _abstraction(r: Results) -> bool:
    by_level = _ablation(r, "abstraction")
    return by_level["root"] > by_level["venue"] and by_level["leaf"] >= by_level["venue"]


def _cell_size(r: Results) -> bool:
    rows = r["ablations"]["cell_size"]
    occupied = [row["occupied_cells"] for row in rows]
    return occupied[0] >= occupied[-1] and len({row["users_placed"] for row in rows}) == 1


def _tolerance(r: Results) -> bool:
    counts = list(_ablation(r, "time_tolerance").values())
    return all(a <= b for a, b in zip(counts, counts[1:])) and counts[1] > counts[0]


def _ground_truth(r: Results) -> bool:
    rows = r["ground_truth"]
    return (
        rows[0]["mean_recall"] >= rows[-1]["mean_recall"]
        and min(row["mean_precision"] for row in rows) >= 0.85
    )


def _prediction(r: Results) -> bool:
    best = {
        level: max((row["acc@1"] for row in payload["reports"].values()), default=0.0)
        for level, payload in r["prediction"].items()
    }
    return best["venue"] < best["root"] and best["venue"] <= 0.45


def _dbscan_rnn(r: Results) -> bool:
    rnn = r["dbscan_rnn"]["reports"]["dbscan-rnn"]
    return rnn["n_examples"] > 0 and rnn["acc@1"] <= 0.75 and rnn["acc@3"] >= rnn["acc@1"]


def _communities(r: Results) -> bool:
    c = r["communities"]
    return c["n_covered"] == c["n_profiled"] == sum(c["sizes"])


PAPER_CLAIMS = (
    _Claim("table_d_sparse", "dataset_stats",
          "sparse (<1 record/user/day), median ≤ mean records/user, Apr–Jun densest",
          _table_d),
    _Claim("fig2_funnel_narrows", "preprocess",
          "each pre-processing step keeps a subset and a crowd survives", _funnel),
    _Claim("fig3_4_crowd_moves", "crowd_views",
          "a crowd exists at 9–10 am and moves when the window changes", _crowd_moves),
    _Claim("fig5_sequences_fall_steeply", "sweep_rows",
          "sequences/user fall with support, steeper early than late", _fig5),
    _Claim("fig6_counts_right_skewed", "fig6_counts",
          "per-user sequence counts at 0.5 are non-negative, mean ≥ median", _fig6),
    _Claim("fig7_length_falls", "sweep_rows",
          "avg pattern length falls with support from multi-item patterns", _fig7),
    _Claim("fig8_lengths_short", "fig8_lengths",
          "avg lengths at 0.5 are ≥ 1 with median ≤ 3", _fig8),
    _Claim("abstraction_reveals_patterns", "ablations",
          "root > venue and leaf ≥ venue sequences/user", _abstraction),
    _Claim("every_bin_width_yields", "ablations",
          "every time-bin width mines patterns",
          lambda r: all(v > 0 for v in _ablation(r, "bin_width").values())),
    _Claim("coarse_cells_concentrate", "ablations",
          "coarser cells occupy no more cells and place the same users", _cell_size),
    _Claim("weekday_sharpens_routine", "ablations",
          "weekday-only mining finds at least as many sequences as all days",
          lambda r: _ablation(r, "day_kind")["weekday"] >= _ablation(r, "day_kind")["all"]),
    _Claim("tolerance_adds_support", "ablations",
          "sequences/user never fall as time tolerance widens, and tolerance 1 beats 0",
          _tolerance),
    _Claim("ground_truth_precise", "ground_truth",
          "precision ≥ 0.85 at every support; recall falls with support", _ground_truth),
    _Claim("venue_prediction_hard", "prediction",
          "best venue acc@1 is below root and ≤ 0.45", _prediction),
    _Claim("dbscan_rnn_modest", "dbscan_rnn",
          "DBSCAN+RNN acc@1 ≤ 0.75 and acc@3 ≥ acc@1", _dbscan_rnn),
    _Claim("forecast_time_lift", "crowd_forecast",
          "targeted (cell, hour) pairs are > 1.5× denser on held-out days",
          lambda r: r["crowd_forecast"]["time_lift"] > 1.5),
    _Claim("communities_cover_users", "communities",
          "the communities partition every profiled user", _communities),
    _Claim("injected_event_detected", "event_detection",
          "the injected festival is detected as a spike",
          lambda r: r["event_detection"]["event_detected"]),
)


def evaluate_claims(results: Results) -> Dict[str, bool]:
    """``claim name → holds`` for every claim whose family ``results`` has."""
    return {
        claim.name: bool(claim.check(results))
        for claim in PAPER_CLAIMS
        if claim.family in results
    }


def calibration_misses(stats: DatasetStats) -> List[str]:
    """Table-D metrics more than 10% away from the paper's value."""
    measured = {
        "check-ins": stats.n_checkins,
        "users": stats.n_users,
        "mean records/user": stats.mean_records_per_user,
        "median records/user": stats.median_records_per_user,
    }
    return [
        f"{metric}: {measured[metric]:,.1f} vs paper {target:,}"
        for metric, target in PAPER_TABLE_D.items()
        if abs(measured[metric] - target) / target > 0.10
    ]
