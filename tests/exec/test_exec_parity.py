"""Process-backend fan-out is invisible in the output.

The execution layer's contract: for any worker count, the fanned-out
phase 2 (and the windowed crowd timeline) produce results *equal* to the
serial path — same profiles, same order-sensitive structures.
"""

from __future__ import annotations

import pytest

from repro.crowd import CrowdAggregator
from repro.exec import ExecConfig
from repro.patterns import detect_all_patterns


@pytest.fixture(scope="module")
def serial_profiles(small_ds, taxonomy):
    return detect_all_patterns(small_ds, taxonomy)


@pytest.mark.parametrize("workers", [2, 4])
def test_detect_all_patterns_process_equals_serial(
    small_ds, taxonomy, serial_profiles, workers
):
    fanned = detect_all_patterns(
        small_ds,
        taxonomy,
        exec_config=ExecConfig(workers=workers),
    )
    assert fanned == serial_profiles


def test_vocab_ships_to_workers_intact(small_ds, taxonomy, serial_profiles):
    """The interned task payload survives pickling bit-for-bit.

    Phase 2 ships each user as ``(uid, name, packed id arrays)`` plus one
    dataset-wide vocabulary in the worker closure.  Round-tripping that
    closure and payload through pickle — exactly what the process pool does
    — must reproduce the serial profiles, proving ids decode to the same
    items on the far side.
    """
    import pickle
    from functools import partial

    from repro.mining import ModifiedPrefixSpanConfig
    from repro.patterns.model import _profile_from_encoded
    from repro.sequences import HOURLY, build_all_databases
    from repro.taxonomy import AbstractionLevel

    databases = build_all_databases(small_ds, taxonomy)
    assert len({db.vocab for db in databases.values()}) == 1, (
        "per-user databases must share one vocabulary"
    )
    worker = partial(
        _profile_from_encoded,
        vocab=databases[sorted(databases)[0]].vocab,
        taxonomy=taxonomy,
        level=AbstractionLevel.ROOT,
        binning=HOURLY,
        config=ModifiedPrefixSpanConfig(),
        closed_only=True,
    )
    shipped_worker = pickle.loads(pickle.dumps(worker))
    shipped_vocab = shipped_worker.keywords["vocab"]
    assert shipped_vocab.items == worker.keywords["vocab"].items
    for uid, db in databases.items():
        task = pickle.loads(pickle.dumps((uid, db.name, db.storage)))
        assert shipped_worker(task) == serial_profiles[uid]


def test_process_backend_preserves_user_order(small_ds, taxonomy, serial_profiles):
    fanned = detect_all_patterns(
        small_ds,
        taxonomy,
        exec_config=ExecConfig(workers=2),
    )
    assert list(fanned) == list(serial_profiles)


def test_timeline_process_equals_serial(pipeline_result):
    aggregator = CrowdAggregator(
        pipeline_result.profiles,
        pipeline_result.dataset,
        pipeline_result.grid,
        pipeline_result.taxonomy,
        binning=pipeline_result.config.binning,
    )
    serial = aggregator.timeline()
    fanned = aggregator.timeline(
        exec_config=ExecConfig(workers=2)
    )
    assert len(fanned) == len(serial)
    for a, b in zip(fanned, serial):
        assert a.placements == b.placements


def test_pipeline_config_carries_exec(small_ds):
    """The pipeline knob end-to-end: a parallel config yields equal output."""
    from dataclasses import replace

    from repro.experiments import small_pipeline_config
    from repro.pipeline import run_pipeline

    base_config = small_pipeline_config()
    serial = run_pipeline(small_ds, base_config)
    fanned = run_pipeline(
        small_ds,
        replace(base_config, exec=ExecConfig(workers=2)),
    )
    assert fanned.profiles == serial.profiles
    for a, b in zip(fanned.timeline, serial.timeline):
        assert a.placements == b.placements
