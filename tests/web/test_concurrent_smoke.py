"""Concurrent smoke test: many threads hammering a live CrowdWebServer.

N worker threads alternate between a page route and ``GET /metrics``
against a real server under scoped observability.  The assertions are the
runtime contract the static CW7xx pack enforces at lint time:

* no request errors or handler exceptions under concurrency;
* every worker's successive samples of the request counter are monotonic
  (counters only ever increase — torn or lost updates would show up as a
  decrease);
* after the dust settles, the counter equals exactly the number of page
  requests issued: no lost increments.
"""

from __future__ import annotations

import gzip
import json
import threading
import urllib.request
from http.client import HTTPConnection

from repro.obs import observed
from repro.web import CrowdWebServer

N_WORKERS = 8
N_ROUNDS = 6


def _fetch(url: str):
    with urllib.request.urlopen(url, timeout=15) as resp:
        return resp.status, resp.read()


def _span_names(tree) -> list:
    names = [tree["name"]]
    for child in tree.get("children", ()):
        names.extend(_span_names(child))
    return names


def test_concurrent_requests_keep_metrics_consistent(pipeline_result):
    server = CrowdWebServer(pipeline_result, port=0).start()
    errors = []
    samples = {i: [] for i in range(N_WORKERS)}

    def hammer(worker: int) -> None:
        try:
            for _ in range(N_ROUNDS):
                status, _body = _fetch(server.url + "/")
                assert status == 200
                status, body = _fetch(server.url + "/metrics")
                assert status == 200
                payload = json.loads(body)
                assert payload["enabled"] is True
                samples[worker].append(
                    payload["counters"]["repro_web_requests_total"].get("/", 0)
                )
        except Exception as exc:  # noqa: BLE001 - surfaced via the errors list
            errors.append((worker, repr(exc)))

    try:
        with observed():
            _fetch(server.url + "/")  # warm-up: the counter key exists
            workers = [
                threading.Thread(target=hammer, args=(i,)) for i in range(N_WORKERS)
            ]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in workers)
            _status, body = _fetch(server.url + "/metrics")
            final = json.loads(body)["counters"]["repro_web_requests_total"]["/"]
    finally:
        server.stop()

    assert errors == []
    for worker, seen in samples.items():
        assert len(seen) == N_ROUNDS
        assert seen == sorted(seen), f"counter went backwards for worker {worker}"
        # Each sample was taken after this worker's own page request landed,
        # so it must count at least those (plus the warm-up).
        assert seen[-1] >= N_ROUNDS
    assert final == N_WORKERS * N_ROUNDS + 1  # every page hit counted once


class TestServingContract:
    """The cache/ETag/gzip/tile contract over a real keep-alive connection."""

    def test_etag_round_trip_serves_304_with_zero_renders(self, pipeline_result):
        server = CrowdWebServer(pipeline_result, port=0).start()
        host, port = server.address
        try:
            with observed() as o:
                conn = HTTPConnection(host, port, timeout=15)
                conn.request("GET", "/api/crowd/9")
                first = conn.getresponse()
                body = first.read()
                etag = first.getheader("ETag")
                last_modified = first.getheader("Last-Modified")
                assert first.status == 200 and body
                assert etag and etag.startswith('"')
                assert last_modified and "GMT" in last_modified
                assert first.getheader("Vary") == "Accept-Encoding"

                conn.request("GET", "/api/crowd/9",
                             headers={"If-None-Match": etag})
                second = conn.getresponse()
                assert second.status == 304
                assert second.read() == b""
                assert second.getheader("ETag") == etag

                conn.request("GET", "/api/crowd/9",
                             headers={"If-Modified-Since": last_modified})
                third = conn.getresponse()
                assert third.status == 304
                assert third.read() == b""
                conn.close()

                registry = o.registry
                assert registry.counter("repro_web_renders_total") == 1
                assert registry.counter("repro_web_not_modified_total") == 2
                # Only the first request opened a render span.
                render_spans = [
                    name
                    for tree in o.tracer.export()
                    for name in _span_names(tree)
                    if name == "web.render"
                ]
                assert render_spans == ["web.render"]
        finally:
            server.stop()

    def test_gzip_negotiation_serves_precompressed_bodies(self, pipeline_result):
        server = CrowdWebServer(pipeline_result, port=0).start()
        host, port = server.address
        try:
            conn = HTTPConnection(host, port, timeout=15)
            conn.request("GET", "/api/occupancy")
            identity = conn.getresponse()
            raw = identity.read()
            assert identity.status == 200
            assert identity.getheader("Content-Encoding") is None

            conn.request("GET", "/api/occupancy",
                         headers={"Accept-Encoding": "gzip"})
            compressed = conn.getresponse()
            packed = compressed.read()
            conn.close()
            assert compressed.status == 200
            assert compressed.getheader("Content-Encoding") == "gzip"
            assert compressed.getheader("Vary") == "Accept-Encoding"
            assert len(packed) < len(raw)
            assert gzip.decompress(packed) == raw
        finally:
            server.stop()

    def test_tile_boundaries_partition_users_over_http(self, pipeline_result):
        """Cells on tile edges appear in exactly one tile, for every tile."""
        server = CrowdWebServer(pipeline_result, port=0).start()
        window = max(
            range(len(pipeline_result.timeline)),
            key=lambda i: pipeline_result.timeline[i].n_users,
        )
        expected = pipeline_result.timeline[window].n_users
        try:
            _status, body = _fetch(server.url + "/api/tiles")
            scheme = json.loads(body)
            for z in range(scheme["max_zoom"] + 1):
                seen_cells = set()
                total = 0
                for x in range(2 ** z):
                    for y in range(2 ** z):
                        _status, body = _fetch(
                            server.url + f"/api/tiles/{z}/{x}/{y}?window={window}"
                        )
                        tile = json.loads(body)
                        total += tile["n_users"]
                        for cell in tile["cells"]:
                            key = (cell["row"], cell["col"])
                            assert key not in seen_cells, (
                                f"cell {key} appears in more than one tile at z={z}"
                            )
                            seen_cells.add(key)
                assert total == expected, f"users lost or duplicated at z={z}"
        finally:
            server.stop()

    def test_refresh_invalidates_cached_responses(self, pipeline_result):
        server = CrowdWebServer(pipeline_result, port=0).start()
        host, port = server.address
        try:
            conn = HTTPConnection(host, port, timeout=15)
            conn.request("GET", "/api/stats")
            first = conn.getresponse()
            first.read()
            etag = first.getheader("ETag")

            conn.request("POST", "/api/refresh")
            refresh = conn.getresponse()
            payload = json.loads(refresh.read())
            assert refresh.status == 200
            assert payload["invalidated"] >= 1
            assert payload["generation"] == 1

            # The old validator no longer matches: a full response comes back
            # with a new generation's ETag.
            conn.request("GET", "/api/stats", headers={"If-None-Match": etag})
            after = conn.getresponse()
            body = after.read()
            conn.close()
            assert after.status == 200 and body
            assert after.getheader("ETag") != etag
        finally:
            server.stop()