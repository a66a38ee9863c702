#!/usr/bin/env python
"""CI smoke: structural assertions on the freshly-written bench reports.

Runs right after ``python -m repro.bench --scale smoke`` in the bench-smoke
job (default mode) or ``python -m repro.bench --web --scale smoke`` in the
bench-web-smoke job (``--web``), and checks the *shape* of what the runners
measured — never wall-clock thresholds, which a loaded CI runner can miss
arbitrarily.

Default mode (``BENCH_mining.json``):

1. the interned miner row is present and its recorded speedup over the
   reference core is > 1 (the runners already asserted bit-for-bit output
   parity before timing anything);
2. the report carries the representation's memory side — the
   ``db_build_object`` / ``db_build_interned`` rows with schema-v3
   ``peak_tracemalloc_kb`` and ``bytes_per_sequence`` measurements;
3. the interned representation meets the acceptance bar: its bytes per
   sequence are at most 1/4 of the object representation's;
4. the classic baselines ``prefixspan_classic`` and ``gsp`` are timed (the
   runner already asserted they mine the same pattern set).

``--web`` mode (``BENCH_web.json``):

1. all four serving phases are present with latency quantiles, hit ratio,
   bytes-on-wire and work-unit (real render) counts;
2. the cached hot path did at most ``MAX_HOT_WORK_RATIO`` of the cold
   phase's rendering work while serving strictly more requests, and its
   cache hit ratio clears ``MIN_HOT_HIT_RATIO`` — a work ratio, not a
   wall-clock ratio, so it holds on any runner;
3. the ``304`` phase re-rendered nothing and moved (near-)zero body bytes;
4. the gzip phase moved strictly fewer bytes than the identity hot phase
   for the same request count, again with zero re-renders.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.bench import BENCH_MINING_FILENAME, BENCH_WEB_FILENAME, BenchReport

MAX_INTERNED_BYTES_RATIO = 0.25

#: Hot-phase renders may be at most this fraction of the cold phase's —
#: in practice 0: the cold sweep populated every key the hot sweep asks for.
MAX_HOT_WORK_RATIO = 0.25

#: The hot phase must overwhelmingly hit the cache.
MIN_HOT_HIT_RATIO = 0.8


def check_mining(out_dir: Path) -> str:
    report = BenchReport.load(out_dir / BENCH_MINING_FILENAME)

    interned = report.row("modified_prefixspan_interned")
    assert interned.speedup_vs_serial > 1.0, (
        f"interned miner did not beat the reference core "
        f"(speedup {interned.speedup_vs_serial})"
    )

    obj = report.row("db_build_object")
    mem = report.row("db_build_interned")
    for row in (obj, mem):
        assert row.peak_tracemalloc_kb and row.peak_tracemalloc_kb > 0, (
            f"{row.name}: missing peak_tracemalloc_kb measurement"
        )
        assert row.bytes_per_sequence and row.bytes_per_sequence > 0, (
            f"{row.name}: missing bytes_per_sequence measurement"
        )

    ratio = mem.bytes_per_sequence / obj.bytes_per_sequence
    assert ratio <= MAX_INTERNED_BYTES_RATIO, (
        f"interned DB is {ratio:.2f}x the object representation per "
        f"sequence; the bar is {MAX_INTERNED_BYTES_RATIO}"
    )

    for name in ("prefixspan_classic", "gsp"):
        assert report.row(name).wall_clock_s > 0, f"{name}: no timing recorded"

    return (
        f"bench smoke OK: miner speedup {interned.speedup_vs_serial:.2f}x, "
        f"memory {obj.bytes_per_sequence:.1f} -> {mem.bytes_per_sequence:.1f} "
        f"bytes/seq ({1 / ratio:.2f}x smaller)"
    )


def check_web(out_dir: Path) -> str:
    report = BenchReport.load(out_dir / BENCH_WEB_FILENAME)
    assert report.benchmark == "web", f"unexpected benchmark {report.benchmark!r}"

    cold = report.row("web_cold_uncached")
    hot = report.row("web_hot_cached")
    cond = report.row("web_hot_conditional_304")
    gz = report.row("web_hot_gzip")

    for row in (cold, hot, cond, gz):
        assert row.p50_s is not None and row.p99_s is not None, (
            f"{row.name}: missing latency quantiles"
        )
        assert row.p50_s <= row.p99_s, f"{row.name}: p50 above p99"
        assert row.hit_ratio is not None, f"{row.name}: missing hit_ratio"
        assert row.bytes_on_wire is not None, f"{row.name}: missing bytes_on_wire"
        assert row.work_units is not None, f"{row.name}: missing work_units"
        assert row.ops_per_sec > 0, f"{row.name}: no requests per second recorded"

    # The cold phase did real work; the hot phase must not repeat it.
    assert cold.work_units > 0, "cold phase recorded no renders"
    hot_requests = hot.ops_per_sec * hot.wall_clock_s
    cold_requests = cold.ops_per_sec * cold.wall_clock_s
    assert hot_requests > cold_requests, (
        "hot phase served fewer requests than cold — schedule misconfigured"
    )
    work_ratio = hot.work_units / cold.work_units
    assert work_ratio <= MAX_HOT_WORK_RATIO, (
        f"hot phase re-rendered {hot.work_units:.0f}/{cold.work_units:.0f} "
        f"({work_ratio:.2f}) of the cold phase's work; the bar is "
        f"{MAX_HOT_WORK_RATIO}"
    )
    assert hot.hit_ratio >= MIN_HOT_HIT_RATIO, (
        f"hot-phase cache hit ratio {hot.hit_ratio:.2f} below "
        f"{MIN_HOT_HIT_RATIO}"
    )

    # Revalidation: no renders, no body bytes.
    assert cond.work_units == 0, (
        f"304 phase forced {cond.work_units:.0f} renders"
    )
    assert cond.bytes_on_wire < hot.bytes_on_wire, (
        "304 phase moved no fewer bytes than the full hot phase"
    )

    # Content negotiation: same requests, fewer bytes, no extra work.
    assert gz.work_units == 0, (
        f"gzip phase forced {gz.work_units:.0f} renders"
    )
    assert gz.bytes_on_wire < hot.bytes_on_wire, (
        f"gzip phase moved {gz.bytes_on_wire:.0f} bytes vs. identity "
        f"{hot.bytes_on_wire:.0f} — pre-compressed bodies not served"
    )

    return (
        f"web bench smoke OK: hot work ratio {work_ratio:.2f} "
        f"(hit ratio {hot.hit_ratio:.2f}), 304 bytes "
        f"{cond.bytes_on_wire:.0f}, gzip saves "
        f"{1 - gz.bytes_on_wire / hot.bytes_on_wire:.0%} of "
        f"{hot.bytes_on_wire:.0f} identity bytes"
    )


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    web = "--web" in args
    if web:
        args.remove("--web")
    out_dir = Path(args[0] if args else "bench-out")
    print(check_web(out_dir) if web else check_mining(out_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
