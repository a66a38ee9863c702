"""Pinned-seed perf benchmark runners.

Each runner generates a deterministic synthetic dataset for the requested
scale, times the competing implementations, and returns a
:class:`~repro.bench.schema.BenchReport`:

* :func:`run_mining_bench` — the phase-2 algorithmic core: the interned
  indexed :func:`~repro.mining.modified.modified_prefixspan` vs. the
  pool-rescan :func:`~repro.mining.modified.modified_prefixspan_reference`,
  on the busiest user's day database (ops = mining runs completed), the
  classic :func:`~repro.mining.prefixspan.prefixspan` vs. generate-and-test
  :func:`~repro.mining.gsp.gsp` on the same database, plus the interning
  memory rows of :func:`run_interning_bench`.
* :func:`run_interning_bench` — database-build memory before/after
  interning: the retired tuple-of-items representation vs. the id-array
  representation, with tracemalloc peaks and deep-walked bytes/sequence.
* :func:`run_pipeline_bench` — the execution layer:
  :func:`~repro.patterns.detect_all_patterns` serial vs. the process
  backend at several worker counts (ops = users mined).
* :func:`run_obs_overhead_bench` — the observability layer's cost:
  serial phase 2 with the observer off vs. on, outputs asserted identical.

Every runner executes under a scoped :func:`repro.obs.observed` observer
and embeds its exported span trees in the report (``BenchReport.trace``),
so a ``BENCH_*.json`` carries its own profile.  Reports also record
whether the working tree was dirty; ``python -m repro.bench`` refuses to
overwrite committed reports from a dirty tree unless ``--force``-d.

``write_reports`` is what CI and ``python -m repro.bench`` call: it runs
the mining and pipeline benches and writes ``BENCH_mining.json`` /
``BENCH_pipeline.json``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
import tracemalloc
from datetime import date
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..data import SMALL_CONFIG, SynthConfig, generate
from ..exec import ExecConfig
from ..mining import (
    ModifiedPrefixSpanConfig,
    gsp,
    modified_prefixspan,
    modified_prefixspan_reference,
    prefixspan,
)
from ..obs import NULL_OBSERVER, observed, set_observer
from ..patterns import detect_all_patterns
from ..sequences import TimedItem, build_all_databases
from ..taxonomy import build_default_taxonomy
from .schema import BenchReport, BenchRow

__all__ = [
    "BENCH_MINING_FILENAME",
    "BENCH_OBS_FILENAME",
    "BENCH_PIPELINE_FILENAME",
    "SCALES",
    "run_interning_bench",
    "run_mining_bench",
    "run_obs_overhead_bench",
    "run_pipeline_bench",
    "write_reports",
]

BENCH_MINING_FILENAME = "BENCH_mining.json"
BENCH_PIPELINE_FILENAME = "BENCH_pipeline.json"
BENCH_OBS_FILENAME = "BENCH_obs.json"

#: Data scales, all fully pinned by their config seed.  ``smoke`` is the CI
#: gate (seconds); ``bench`` is a mid-sized city (300 users, 11 months);
#: ``paper`` is the full 1,083-user reproduction scale.
SCALES: Dict[str, SynthConfig] = {
    "smoke": SynthConfig(
        seed=7,
        n_users=24,
        n_venues=300,
        n_neighborhoods=6,
        start_date=date(2012, 4, 1),
        end_date=date(2012, 5, 15),
    ),
    "small": SMALL_CONFIG,
    "bench": SynthConfig(n_users=300, n_venues=2500, seed=20230701),
    "paper": SynthConfig(),
}


def _config_for(scale: str) -> SynthConfig:
    try:
        return SCALES[scale]
    except KeyError:
        raise ValueError(
            f"unknown bench scale {scale!r} (expected one of {sorted(SCALES)})"
        ) from None


def _available_cpus() -> int:
    """CPUs usable by this process (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _git_state() -> Tuple[str, bool]:
    """(short revision or ``unknown``, does the tree have uncommitted changes?)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return "unknown", False
    rev = out.stdout.strip()
    if out.returncode != 0 or not rev:
        return "unknown", False
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return rev, False
    return rev, status.returncode == 0 and bool(status.stdout.strip())


def _git_rev() -> str:
    """Short git revision (``-dirty`` suffixed when the tree has changes),
    or ``unknown`` outside a checkout."""
    rev, dirty = _git_state()
    return f"{rev}-dirty" if dirty else rev


def _stamp(git_rev: Optional[str]) -> Tuple[str, bool]:
    """The (git_rev, dirty) pair a report should carry: an explicit caller
    override (assumed clean) or the probed state."""
    if git_rev is not None:
        return git_rev, False
    rev, dirty = _git_state()
    return (f"{rev}-dirty" if dirty else rev), dirty


def _time(fn, repeats: int) -> Tuple[float, object]:
    """Best-of-``repeats`` wall clock and the last return value."""
    best = float("inf")
    value = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def _speed_row(
    name: str, seconds: float, ops: float, baseline_s: Optional[float] = None,
    **memory: float,
) -> BenchRow:
    """A timed row doing ``ops`` operations per run; its speedup is over
    ``baseline_s``, and a row without one is the baseline itself."""
    if baseline_s is None:
        speedup = 1.0
    else:
        speedup = baseline_s / seconds if seconds else 0.0
    return BenchRow(
        name=name,
        wall_clock_s=seconds,
        ops_per_sec=ops / seconds if seconds else 0.0,
        speedup_vs_serial=speedup,
        **memory,
    )


def _deep_size_bytes(root: object) -> int:
    """Resident size of an object graph in bytes (shared objects once).

    An iterative ``sys.getsizeof`` walk over containers, instance dicts and
    slots, deduplicated by object identity — so representations that share
    item instances (interned vocabularies) are credited for the sharing.
    """
    seen = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            obj_dict = getattr(obj, "__dict__", None)
            if obj_dict is not None:
                stack.append(obj_dict)
            for slot in getattr(type(obj), "__slots__", ()):
                if hasattr(obj, slot):
                    stack.append(getattr(obj, slot))
    return total


def _traced(fn) -> Tuple[float, float, object]:
    """(wall seconds, tracemalloc peak in KiB, return value) of one call."""
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return elapsed, peak / 1024.0, value


def _interning_rows(scale: str) -> Tuple[BenchRow, BenchRow]:
    """Database-build memory rows: object representation vs. interned.

    Builds the dataset's per-user databases (interned id arrays + shared
    vocabulary), then materializes the same data the retired way — one
    fresh :class:`TimedItem` per occurrence in tuples-of-tuples — and
    measures both sides' tracemalloc build peak and deep-walked steady
    bytes per sequence.  The object row is the baseline (speedup 1.0).
    """
    synth = _config_for(scale)
    taxonomy = build_default_taxonomy()
    dataset = generate(synth).dataset

    interned_s, interned_peak_kb, databases = _traced(
        lambda: build_all_databases(dataset, taxonomy)
    )
    storage_all = [db.storage for db in databases.values()]
    n_sequences = sum(len(db) for db in databases.values()) or 1
    user_ids = sorted(databases)
    vocab = databases[user_ids[0]].vocab if user_ids else None

    def materialize_objects() -> List:
        worlds = []
        for db in databases.values():
            decode = vocab.decode_sequence
            worlds.append(
                tuple(
                    tuple(TimedItem(item.bin, item.label) for item in decode(arr))
                    for arr in db.encoded
                )
            )
        return worlds

    object_s, object_peak_kb, object_worlds = _traced(materialize_objects)
    object_bytes = _deep_size_bytes(object_worlds)
    interned_bytes = _deep_size_bytes((storage_all, vocab))
    del object_worlds
    return (
        _speed_row("db_build_object", object_s, n_sequences,
                   peak_tracemalloc_kb=object_peak_kb,
                   bytes_per_sequence=object_bytes / n_sequences),
        _speed_row("db_build_interned", interned_s, n_sequences, baseline_s=object_s,
                   peak_tracemalloc_kb=interned_peak_kb,
                   bytes_per_sequence=interned_bytes / n_sequences),
    )


def run_interning_bench(
    scale: str = "bench", repeats: int = 1, git_rev: Optional[str] = None
) -> BenchReport:
    """Measure database-build memory before vs. after interning.

    ``repeats`` is accepted for CLI symmetry but memory peaks are
    deterministic per build, so one build per variant is measured.
    """
    synth = _config_for(scale)
    rows = _interning_rows(scale)
    rev, dirty = _stamp(git_rev)
    return BenchReport(
        benchmark="interning",
        scale=scale,
        seed=synth.seed,
        git_rev=rev,
        n_cpus=_available_cpus(),
        rows=rows,
        dirty=dirty,
    )


def run_mining_bench(
    scale: str = "bench", repeats: int = 1, git_rev: Optional[str] = None
) -> BenchReport:
    """Time the interned indexed miner against the reference core.

    Both variants run the paper's support sweep (0.25 / 0.5 / 0.75) on the
    busiest user's day database; their outputs are asserted identical, so a
    speedup can never come from mining less.  The classic baselines,
    PrefixSpan and generate-and-test GSP, mine the same database at 0.25
    and must find the same pattern set (``gsp``'s speedup is relative to
    ``prefixspan_classic``).  The report also carries the
    interning memory rows (``db_build_object`` / ``db_build_interned``) so
    one ``BENCH_mining.json`` captures both the time and the space side of
    the representation.
    """
    synth = _config_for(scale)
    taxonomy = build_default_taxonomy()
    dataset = generate(synth).dataset
    databases = build_all_databases(dataset, taxonomy)
    busiest = max(databases, key=lambda uid: len(databases[uid]))
    db = databases[busiest]
    configs = [ModifiedPrefixSpanConfig(min_support=s) for s in (0.25, 0.5, 0.75)]

    def run_interned() -> List:
        return [modified_prefixspan(db, cfg, taxonomy) for cfg in configs]

    def run_reference() -> List:
        return [modified_prefixspan_reference(db, cfg, taxonomy) for cfg in configs]

    with observed() as o:
        with o.span("bench.modified_prefixspan_reference", scale=scale,
                    repeats=repeats):
            reference_s, reference_out = _time(run_reference, repeats)
        with o.span("bench.modified_prefixspan_interned", scale=scale,
                    repeats=repeats):
            interned_s, interned_out = _time(run_interned, repeats)
        with o.span("bench.prefixspan_classic", scale=scale, repeats=repeats):
            classic_s, classic_out = _time(lambda: prefixspan(db, 0.25), repeats)
        with o.span("bench.gsp", scale=scale, repeats=repeats):
            gsp_s, gsp_out = _time(lambda: gsp(db, 0.25), repeats)
    if interned_out != reference_out:
        raise AssertionError(
            "interned and reference miners disagree — refusing to report a "
            "speedup over different output"
        )
    if {(p.items, p.count) for p in classic_out} != {(p.items, p.count) for p in gsp_out}:
        raise AssertionError(
            "prefixspan and gsp disagree at min_support 0.25 — refusing to "
            "report timings over different output"
        )
    ops = float(len(configs))
    rows = (
        _speed_row("modified_prefixspan_reference", reference_s, ops),
        _speed_row("modified_prefixspan_interned", interned_s, ops, baseline_s=reference_s),
        _speed_row("prefixspan_classic", classic_s, 1),
        _speed_row("gsp", gsp_s, 1, baseline_s=classic_s),
    ) + _interning_rows(scale)
    rev, dirty = _stamp(git_rev)
    return BenchReport(
        benchmark="mining",
        scale=scale,
        seed=synth.seed,
        git_rev=rev,
        n_cpus=_available_cpus(),
        rows=rows,
        dirty=dirty,
        trace=tuple(o.tracer.export()),
    )


def run_pipeline_bench(
    scale: str = "bench",
    workers: Sequence[int] = (1, 2, 4),
    repeats: int = 1,
    git_rev: Optional[str] = None,
) -> BenchReport:
    """Time phase 2 across execution backends: serial, then N processes.

    Every backend's profiles are asserted identical to the serial run's
    before any timing is reported.
    """
    synth = _config_for(scale)
    taxonomy = build_default_taxonomy()
    dataset = generate(synth).dataset
    n_users = dataset.n_users

    with observed() as o:
        with o.span("bench.detect_all_serial", scale=scale, repeats=repeats):
            serial_s, baseline = _time(
                lambda: detect_all_patterns(dataset, taxonomy), repeats
            )
        rows = [_speed_row("detect_all_patterns_serial", serial_s, n_users)]
        for n in workers:
            exec_config = ExecConfig(backend="process", n_workers=n)
            with o.span(f"bench.detect_all_process_{n}w", scale=scale,
                        repeats=repeats):
                elapsed, profiles = _time(
                    lambda: detect_all_patterns(
                        dataset, taxonomy, exec_config=exec_config
                    ),
                    repeats,
                )
            if profiles != baseline:
                raise AssertionError(
                    f"process backend ({n} workers) diverged from serial output"
                )
            rows.append(_speed_row(f"detect_all_patterns_process_{n}w", elapsed,
                                   n_users, baseline_s=serial_s))
    rev, dirty = _stamp(git_rev)
    return BenchReport(
        benchmark="pipeline",
        scale=scale,
        seed=synth.seed,
        git_rev=rev,
        n_cpus=_available_cpus(),
        rows=tuple(rows),
        dirty=dirty,
        trace=tuple(o.tracer.export()),
    )


def run_obs_overhead_bench(
    scale: str = "bench",
    repeats: int = 3,
    git_rev: Optional[str] = None,
    max_overhead_ratio: float = 0.0,
) -> BenchReport:
    """Time serial phase 2 with observability off vs. on.

    Guards the "observability is free when off, cheap when on" promise:
    both variants' profiles are asserted identical before any timing is
    reported, so instrumentation can never change the science.  The
    disabled row is the baseline (``speedup_vs_serial=1.0``); the enabled
    row's speedup is its slowdown factor (e.g. 0.99 ≈ 1% overhead).

    ``max_overhead_ratio`` > 0 additionally asserts the enabled run is
    within that fraction of the disabled one (e.g. 0.02 for 2%) — off by
    default because single-digit-percent wall-clock asserts are flaky on
    shared CI hosts; the report records the ratio either way.
    """
    synth = _config_for(scale)
    taxonomy = build_default_taxonomy()
    dataset = generate(synth).dataset
    n_users = dataset.n_users

    # Pin the observer state for each variant, whatever the caller had.
    previous = set_observer(NULL_OBSERVER)
    try:
        off_s, baseline = _time(
            lambda: detect_all_patterns(dataset, taxonomy), repeats
        )
        with observed() as o:
            on_s, instrumented = _time(
                lambda: detect_all_patterns(dataset, taxonomy), repeats
            )
        trace = tuple(o.tracer.export())
    finally:
        set_observer(previous)
    if instrumented != baseline:
        raise AssertionError(
            "enabling observability changed detect_all_patterns output"
        )
    overhead = (on_s - off_s) / off_s if off_s else 0.0
    if max_overhead_ratio > 0 and overhead > max_overhead_ratio:
        raise AssertionError(
            f"observability overhead {overhead:.1%} exceeds the "
            f"{max_overhead_ratio:.0%} budget ({off_s:.3f}s off, {on_s:.3f}s on)"
        )
    rows = (
        _speed_row("detect_all_obs_disabled", off_s, n_users),
        _speed_row("detect_all_obs_enabled", on_s, n_users, baseline_s=off_s),
    )
    rev, dirty = _stamp(git_rev)
    return BenchReport(
        benchmark="obs_overhead",
        scale=scale,
        seed=synth.seed,
        git_rev=rev,
        n_cpus=_available_cpus(),
        rows=rows,
        dirty=dirty,
        trace=trace,
    )


def write_reports(
    out_dir: Union[str, Path] = ".",
    scale: str = "bench",
    workers: Sequence[int] = (1, 2, 4),
    repeats: int = 1,
) -> Tuple[Path, Path]:
    """Run both benchmarks and write ``BENCH_*.json`` into ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mining = run_mining_bench(scale, repeats=repeats)
    pipeline = run_pipeline_bench(scale, workers=workers, repeats=repeats)
    return (
        mining.save(out_dir / BENCH_MINING_FILENAME),
        pipeline.save(out_dir / BENCH_PIPELINE_FILENAME),
    )
