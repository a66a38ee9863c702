"""Tests for the serving response cache (keys, LRU, validators, threads)."""

import gzip
import threading
from collections import OrderedDict

import pytest

from repro.obs import observed
from repro.web import ResponseCache, dataset_fingerprint
from repro.web.cache import MIN_GZIP_BYTES

BIG_BODY = (b'{"cells": [' + b", ".join(b'{"n": 1}' for _ in range(200)) + b"]}")


@pytest.fixture()
def cache():
    return ResponseCache("fp0123456789abcd", max_entries=4)


class TestKeys:
    def test_keys_are_fingerprint_prefixed(self, cache):
        key = cache.key("GET", "/api/crowd/9", "")
        assert key[0] == cache.fingerprint
        assert key == (cache.fingerprint, "GET", "/api/crowd/9", "")

    def test_fingerprint_is_stable_and_sensitive(self, pipeline_result):
        first = dataset_fingerprint(pipeline_result)
        assert first == dataset_fingerprint(pipeline_result)
        assert len(first) == 16

    def test_different_fingerprints_never_alias(self, cache):
        other = ResponseCache("other_fingerprint")
        assert cache.key("GET", "/", "") != other.key("GET", "/", "")


class TestStoreAndLookup:
    def test_miss_then_hit(self, cache):
        key = cache.key("GET", "/x", "")
        assert cache.lookup(key) is None
        stored = cache.store(key, b"body", "application/json")
        found = cache.lookup(key)
        assert found is stored
        assert found.body == b"body"
        assert found.content_type == "application/json"

    def test_etag_is_strong_and_key_dependent(self, cache):
        a = cache.store(cache.key("GET", "/a", ""), b"same", "text/plain")
        b = cache.store(cache.key("GET", "/b", ""), b"same", "text/plain")
        assert a.etag.startswith('"') and a.etag.endswith('"')
        assert a.etag != b.etag

    def test_small_bodies_get_no_gzip_twin(self, cache):
        entry = cache.store(cache.key("GET", "/s", ""), b"tiny", "text/plain")
        assert len(b"tiny") < MIN_GZIP_BYTES
        assert entry.gzip_body is None

    def test_large_bodies_get_smaller_gzip_twin(self, cache):
        entry = cache.store(cache.key("GET", "/l", ""), BIG_BODY, "application/json")
        assert entry.gzip_body is not None
        assert len(entry.gzip_body) < len(entry.body)
        assert gzip.decompress(entry.gzip_body) == BIG_BODY

    def test_gzip_twin_is_deterministic(self, cache):
        a = cache.store(cache.key("GET", "/l", ""), BIG_BODY, "application/json")
        b = cache.store(cache.key("GET", "/l", ""), BIG_BODY, "application/json")
        assert a.gzip_body == b.gzip_body  # mtime pinned: no clock in the bytes


class TestLRU:
    def test_eviction_order_is_least_recently_used(self, cache):
        keys = [cache.key("GET", f"/{i}", "") for i in range(5)]
        for key in keys[:4]:
            cache.store(key, b"x", "text/plain")
        cache.lookup(keys[0])  # refresh 0 so 1 is now the LRU entry
        cache.store(keys[4], b"x", "text/plain")
        assert len(cache) == 4
        assert cache.lookup(keys[1]) is None
        assert cache.lookup(keys[0]) is not None

    def test_max_entries_validated(self):
        with pytest.raises(ValueError):
            ResponseCache("fp", max_entries=0)


class TestInvalidation:
    def test_invalidate_drops_everything_and_bumps_generation(self, cache):
        key = cache.key("GET", "/x", "")
        old = cache.store(key, b"body", "text/plain")
        assert cache.invalidate() == 1
        assert len(cache) == 0
        assert cache.generation == 1
        new = cache.store(key, b"body", "text/plain")
        assert new.etag != old.etag  # generation is hashed into the ETag

    def test_store_raced_by_invalidate_is_not_kept(self, cache, monkeypatch):
        key = cache.key("GET", "/x", "")
        real_build = cache._build_entry

        def racing_build(*args, **kwargs):
            entry = real_build(*args, **kwargs)
            cache.invalidate()  # the refresh lands while the entry is built
            return entry

        monkeypatch.setattr(cache, "_build_entry", racing_build)
        entry = cache.store(key, b"old", "text/plain")
        assert entry.body == b"old"  # the caller still gets a usable response
        assert cache.lookup(key) is None  # but the stale entry was discarded

    def test_info_payload(self, cache):
        cache.store(cache.key("GET", "/x", ""), b"body", "text/plain")
        info = cache.info()
        assert info["entries"] == 1
        assert info["payload_bytes"] >= 4
        assert info["generation"] == 0
        assert info["fingerprint"] == cache.fingerprint
        assert "GMT" in info["last_modified"]


class TestMetrics:
    def test_hit_miss_and_eviction_counters(self):
        cache = ResponseCache("fp", max_entries=1)
        with observed() as o:
            key_a = cache.key("GET", "/a", "")
            key_b = cache.key("GET", "/b", "")
            cache.lookup(key_a)
            cache.store(key_a, b"x", "text/plain")
            cache.lookup(key_a)
            cache.store(key_b, b"x", "text/plain")  # evicts /a
            cache.invalidate()
            registry = o.registry
            assert registry.counter("repro_web_cache_misses_total") == 1
            assert registry.counter("repro_web_cache_hits_total") == 1
            assert registry.counter("repro_web_cache_evictions_total") == 1
            assert registry.counter("repro_web_cache_invalidations_total") == 1
            assert registry.gauge("repro_web_cache_entries_size") == 0


class TestThreadSafety:
    def test_concurrent_stores_and_lookups_stay_bounded(self):
        cache = ResponseCache("fp", max_entries=8)
        errors = []

        def hammer(worker: int) -> None:
            try:
                for i in range(200):
                    key = cache.key("GET", f"/{(worker + i) % 16}", "")
                    if cache.lookup(key) is None:
                        cache.store(key, BIG_BODY, "application/json")
                    if i % 50 == 0 and worker == 0:
                        cache.invalidate()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(repr(exc))

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cache) <= 8
        assert cache.generation >= 4

    def test_invalidate_between_check_and_read_cannot_break_lookup(self, cache):
        """An ``invalidate()`` injected right after each dict access of ``lookup``.

        If ``lookup`` touches ``_entries`` without holding ``_lock``, another
        thread could empty it at that very point, so the injection runs
        ``invalidate()`` there and then; if the lock is held, a racing
        ``invalidate()`` has to wait, so the injection runs it once
        ``lookup`` returns.  An unlocked check-then-act (``if key in
        self._entries: entry = self._entries[key]``) then reads a dropped
        key and raises ``KeyError``.
        """
        key = cache.key("GET", "/x", "")
        cache.store(key, b"body", "text/plain")
        armed = [True]
        waiting = []

        def interleave() -> None:
            if not armed:
                return
            armed.clear()
            if cache._lock.acquire(blocking=False):
                cache._lock.release()
                cache.invalidate()
            else:
                waiting.append(cache.invalidate)

        class Interleaved(OrderedDict):
            def __contains__(self, k):
                found = super().__contains__(k)
                interleave()
                return found

            def __getitem__(self, k):
                value = super().__getitem__(k)
                interleave()
                return value

            def get(self, k, default=None):
                value = super().get(k, default)
                interleave()
                return value

        cache._entries = Interleaved(cache._entries)
        entry = cache.lookup(key)
        assert not armed and len(waiting) == 1  # the injection did fire
        waiting[0]()
        assert entry is not None and entry.body == b"body"
        assert cache.lookup(key) is None
