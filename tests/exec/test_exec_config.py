"""The execution layer: config resolution and the ordered-map primitive."""

from __future__ import annotations

import os

import pytest

from repro.exec import ExecConfig, ordered_map
from repro.exec.pool import _chunk_size


def _square(x: int) -> int:
    """Module-level so the process pool can pickle it."""
    return x * x


class TestExecConfig:
    def test_default_is_serial(self):
        config = ExecConfig()
        assert config.workers == 1
        assert config.resolve_workers(1000) == 1

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ExecConfig(workers=-1)

    def test_serial_always_resolves_to_one_worker(self):
        assert ExecConfig(workers=1).resolve_workers(1000) == 1

    def test_single_item_never_fans_out(self):
        config = ExecConfig(workers=8)
        assert config.resolve_workers(1) == 1

    def test_workers_capped_by_items(self):
        config = ExecConfig(workers=8)
        assert config.resolve_workers(3) == 3

    def test_zero_workers_means_all_cores(self):
        config = ExecConfig(workers=0)
        assert config.resolve_workers(10_000) == (os.cpu_count() or 1)

    def test_auto_chunk_gives_each_worker_several_chunks(self):
        chunk = _chunk_size(100, 4)
        assert 1 <= chunk <= 100
        assert -(-100 // chunk) >= 4  # at least one chunk per worker


class TestOrderedMap:
    def test_serial_backend(self):
        assert ordered_map(_square, range(10)) == [x * x for x in range(10)]

    def test_empty_input(self):
        assert ordered_map(_square, []) == []

    def test_process_backend_preserves_order(self):
        config = ExecConfig(workers=2)
        assert ordered_map(_square, range(20), config) == [x * x for x in range(20)]

    def test_process_backend_equals_serial(self):
        items = list(range(37))
        serial = ordered_map(_square, items)
        fanned = ordered_map(_square, items, ExecConfig(workers=3))
        assert fanned == serial
