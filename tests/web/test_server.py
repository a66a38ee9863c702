"""Tests for routing and the live HTTP server."""

import json
import urllib.error
import urllib.request

import pytest

from repro.web import (
    RETRY_AFTER_S,
    CrowdWebAPI,
    CrowdWebApp,
    CrowdWebServer,
)


@pytest.fixture(scope="module")
def app(pipeline_result):
    return CrowdWebApp(pipeline_result)


def get(app, path):
    """One GET through the served path: (status, Content-Type, body text)."""
    status, headers, body = app.handle("GET", path)
    return status, dict(headers).get("Content-Type"), body.decode("utf-8")


class TestRouting:
    @pytest.mark.parametrize("path,content_type", [
        ("/", "text/html; charset=utf-8"),
        ("/users", "text/html; charset=utf-8"),
        ("/city", "text/html; charset=utf-8"),
        ("/city?window=3", "text/html; charset=utf-8"),
        ("/animation", "text/html; charset=utf-8"),
        ("/occupancy", "text/html; charset=utf-8"),
        ("/communities", "text/html; charset=utf-8"),
        ("/analytics", "text/html; charset=utf-8"),
        ("/api/users", "application/json"),
        ("/api/crowd", "application/json"),
        ("/api/crowd/9", "application/json"),
        ("/api/flows/8", "application/json"),
        ("/api/animation", "application/json"),
        ("/api/stats", "application/json"),
        ("/api/occupancy", "application/json"),
        ("/api/communities", "application/json"),
        ("/api/communities?min_similarity=0.2", "application/json"),
        ("/api/tiles", "application/json"),
        ("/api/tiles/0/0/0", "application/json"),
        ("/api/tiles/1/1/0?window=9", "application/json"),
        ("/city?window=3&zoom=1", "text/html; charset=utf-8"),
    ])
    def test_routes_ok(self, app, path, content_type):
        status, ctype, body = get(app, path)
        assert status == 200
        assert ctype == content_type
        assert body

    def test_user_page(self, app, pipeline_result):
        uid = sorted(pipeline_result.profiles)[0]
        status, _, body = get(app, f"/user/{uid}")
        assert status == 200
        assert uid in body
        # The figure draws this user's own places, not an empty graph.
        assert "no places visited" not in body

    def test_unknown_user_404(self, app):
        status, _, body = get(app, "/user/ghost")
        assert status == 404
        assert "ghost" in body

    def test_unknown_path_404(self, app):
        status, _, _ = get(app, "/nope/deep")
        assert status == 404

    def test_bad_params_400(self, app):
        status, _, _ = get(app, "/api/crowd/banana")
        assert status == 400
        status, _, _ = get(app, "/api/crowd/999")
        assert status == 400

    def test_bad_tile_params_400(self, app):
        status, _, _ = get(app, "/api/tiles/9/0/0")
        assert status == 400  # zoom beyond max_zoom
        status, _, _ = get(app, "/api/tiles/1/5/0")
        assert status == 400  # x outside [0, 2^z)
        status, _, _ = get(app, "/api/tiles/1/a/0")
        assert status == 400

    def test_city_window_clamped(self, app):
        status, _, _ = get(app, "/city?window=999")
        assert status == 200

    def test_metrics_route(self, app, pipeline_result):
        uid = sorted(pipeline_result.profiles)[0]
        status, _, body = get(app, f"/api/metrics/{uid}")
        assert status == 200
        assert json.loads(body)["user_id"] == uid
        status, _, _ = get(app, "/api/metrics/ghost")
        assert status == 404

    def test_json_payloads_parse(self, app):
        _, _, body = get(app, "/api/crowd/9")
        payload = json.loads(body)
        assert payload["window"] == "09:00-10:00"


class TestLiveServer:
    def test_round_trip(self, pipeline_result):
        server = CrowdWebServer(pipeline_result, port=0).start()
        try:
            with urllib.request.urlopen(server.url + "/api/stats", timeout=10) as resp:
                assert resp.status == 200
                payload = json.loads(resp.read())
                assert "check-ins" in payload
            with urllib.request.urlopen(server.url + "/", timeout=10) as resp:
                assert b"CrowdWeb" in resp.read()
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(server.url + "/user/ghost", timeout=10)
        finally:
            server.stop()


class TestConcurrency:
    def test_parallel_requests_all_succeed(self, pipeline_result):
        import concurrent.futures

        server = CrowdWebServer(pipeline_result, port=0).start()
        paths = ["/api/users", "/api/crowd", "/api/stats", "/", "/users",
                 "/api/crowd/9", "/city"] * 4
        try:
            def fetch(path):
                with urllib.request.urlopen(server.url + path, timeout=15) as resp:
                    return resp.status

            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                statuses = list(pool.map(fetch, paths))
            assert statuses == [200] * len(paths)
        finally:
            server.stop()

    def test_server_stop_is_idempotent_safe(self, pipeline_result):
        server = CrowdWebServer(pipeline_result, port=0).start()
        server.stop()
        # Stopping a stopped server must not hang or raise.
        server._thread = None


class TestReadiness:
    """The bind-before-build contract: 503 + Retry-After while preparing."""

    def test_503_while_precompute_in_flight(self, pipeline_result):
        import threading

        gate = threading.Event()

        def factory():
            gate.wait(10)
            return pipeline_result

        server = CrowdWebServer(port=0, result_factory=factory).start()
        try:
            request = urllib.request.Request(server.url + "/api/stats")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] == str(RETRY_AFTER_S)
            payload = json.loads(excinfo.value.read())
            assert "warming up" in payload["error"]

            gate.set()
            assert server.wait_ready(timeout=10)
            with urllib.request.urlopen(server.url + "/api/stats",
                                        timeout=10) as resp:
                assert resp.status == 200
        finally:
            gate.set()
            server.stop()

    def test_failed_build_serves_500(self):
        import threading

        failed = threading.Event()

        def factory():
            failed.set()
            raise RuntimeError("synthetic pipeline failure")

        server = CrowdWebServer(port=0, result_factory=factory).start()
        try:
            assert failed.wait(10)
            assert server.wait_ready(timeout=10) is False
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(server.url + "/", timeout=10)
            assert excinfo.value.code == 500
            assert "synthetic pipeline failure" in json.loads(excinfo.value.read())["error"]
        finally:
            server.stop()

    def test_result_and_factory_are_exclusive(self, pipeline_result):
        with pytest.raises(ValueError):
            CrowdWebServer(pipeline_result, result_factory=lambda: pipeline_result)
        with pytest.raises(ValueError):
            CrowdWebServer()

    def test_warm_precomputes_the_hot_key_space(self, pipeline_result):
        app = CrowdWebApp(pipeline_result)
        warmed = app.warm()
        assert warmed == len(app.warm_paths())
        assert len(app.cache) == warmed
        # A warmed route is a pure cache hit: no further render happens.
        from repro.obs import observed

        with observed() as o:
            status, _headers, _body = app.handle("GET", "/api/crowd/9", None)
            assert status == 200
            assert o.registry.counter("repro_web_renders_total") == 0
            assert o.registry.counter("repro_web_cache_hits_total") == 1


class TestCacheKey:
    """Only the params a route reads key the response cache."""

    def test_unread_query_params_do_not_enter_the_cache_key(self, pipeline_result):
        from repro.obs import observed

        app = CrowdWebApp(pipeline_result)
        warmed = app.warm()
        for i in range(600):
            assert app.handle("GET", f"/api/stats?utm={i}", None)[0] == 200
        assert len(app.cache) == warmed
        # A param another route reads is still unread here.
        for i in range(600):
            assert app.handle("GET", f"/api/stats?window={i}", None)[0] == 200
        assert len(app.cache) == warmed
        with observed() as o:
            # A warmed window renders nothing, however its index is spelled.
            for path in ("/api/crowd/9", "/api/crowd/09", "/api/crowd/+9"):
                assert app.handle("GET", path, None)[0] == 200
            assert o.registry.counter("repro_web_renders_total") == 0
            # A param a route reads still keys its own entry.
            app.handle("GET", "/api/communities?utm=x", None)
            app.handle("GET", "/api/communities", None)
            app.handle("GET", "/api/communities?min_similarity=0.1", None)
            assert o.registry.counter("repro_web_renders_total") == 2
        assert len(app.cache) == warmed + 2

    @pytest.mark.parametrize("path,read,unread", [
        ("/city", "window=3&zoom=1", "z=1&min_similarity=0.2"),
        ("/api/tiles/1/0/0", "window=3", "zoom=2&z=1&min_similarity=0.2"),
        ("/api/communities", "min_similarity=0.2", "window=3&zoom=1&z=1"),
        ("/api/spikes", "z=3.5", "window=3&zoom=1&min_similarity=0.2"),
        ("/api/crowd/9", None, "window=3&zoom=1&z=1&min_similarity=0.2"),
        ("/api/occupancy", None, "window=3&zoom=1&z=1&min_similarity=0.2"),
        ("/user/u0006", None, "window=3&zoom=1&z=1&min_similarity=0.2"),
    ])
    def test_each_route_is_keyed_on_the_params_it_reads(self, app, path, read, unread):
        from repro.web import server

        def key(query):
            """What the cache key is built from: the route and its parsed params."""
            segments = [s for s in path.split("/") if s]
            route, n_words = server._match(segments)
            return route, route.params(app, segments[n_words:], query)

        assert key(unread) == key("")
        if read is not None:
            assert key(read) != key("")
            assert key(read + "&" + unread) == key(read)

    def test_params_key_on_their_parsed_clamped_value(self, pipeline_result):
        from repro.obs import observed

        app = CrowdWebApp(pipeline_result)
        last = len(pipeline_result.timeline) - 1
        max_zoom = app.api.tiles.max_zoom
        with observed() as o:
            for i in range(50):
                assert app.handle("GET", f"/api/tiles/0/0/0?window={1000 + i}", None)[0] == 200
            assert app.handle("GET", f"/api/tiles/0/0/0?window={last}", None)[0] == 200
            for value in ("0.1", "0.10", "1e-1", " 0.1"):
                assert app.handle("GET", f"/api/communities?min_similarity={value}", None)[0] == 200
            # The last window at the top zoom, then the default view.
            for query in (f"window={last}&zoom={max_zoom}", "window=99&zoom=99",
                          "window=+99&zoom=0099", "", "window=9&zoom=2", "window=09"):
                assert app.handle("GET", f"/city?{query}", None)[0] == 200
            assert o.registry.counter("repro_web_renders_total") == 4
        assert len(app.cache) == 4

    def test_float_params_key_on_a_bounded_grid(self, pipeline_result):
        """Distinct floats add at most their grid's entries and evict no warmed key."""
        from repro.web import server

        app = CrowdWebApp(pipeline_result)
        warmed = app.warm()
        warm_keys = set(app.cache._entries)
        values = [f"{i / 997:.6f}" for i in range(0, 12_000, 37)]
        values += ["-1", "-0", "1e9", "inf", "-inf", "nan", "1e-300", "0.0049", "0.0051"]
        for prefix in ("/api/communities?min_similarity", "/api/spikes?z"):
            for value in values:
                app.handle("GET", f"{prefix}={value}", None)
        n_points = 10 ** server.MIN_SIMILARITY_DECIMALS + 1  # [0, 1]
        n_points += round(server.Z_MAX * 10 ** server.Z_DECIMALS)  # [0.1, Z_MAX]
        n_points += 1  # z=nan: not positive, yet no error
        assert warmed < len(app.cache) <= warmed + n_points
        assert warm_keys <= set(app.cache._entries)

    @pytest.mark.parametrize("path,off_grid,on_grid,value", [
        ("/api/communities", "min_similarity=0.123", "min_similarity=0.12", 0.12),
        ("/api/communities", "min_similarity=-0", "min_similarity=0", 0.0),
        ("/api/spikes", "z=3.54", "z=3.5", 3.5),
        ("/api/spikes", "z=0.01", "z=0.1", 0.1),
        ("/api/spikes", "z=inf", "z=10", 10.0),
    ])
    def test_off_grid_floats_answer_as_their_grid_point(self, app, path, off_grid, on_grid,
                                                        value):
        status, _headers, body = app.handle("GET", f"{path}?{off_grid}", None)
        assert status == 200
        assert body == app.handle("GET", f"{path}?{on_grid}", None)[2]
        render = app.api.communities if path.endswith("communities") else app.api.spikes
        assert body == json.dumps(render(value)).encode("utf-8")

    @pytest.mark.parametrize("spellings", [
        [f"/api/crowd/{'0' * n}" for n in range(1, 40)] + ["/api/crowd/+0"],
        [f"/api/flows/{'0' * n}1" for n in range(0, 39)],
        [f"/api/tiles/0/0/{'0' * n}?window=3" for n in range(1, 40)]
        + ["/api/tiles/00/000/0?window=03"],
    ])
    def test_integer_path_segments_key_on_their_parsed_value(self, pipeline_result, spellings):
        app = CrowdWebApp(pipeline_result)
        responses = set()
        for path in spellings:
            status, headers, body = app.handle("GET", path, None)
            responses.add((status, tuple(headers), body))
        (response,) = responses  # one status, header list (ETag included) and body
        assert response[0] == 200
        assert len(app.cache) == 1

    @pytest.mark.parametrize("path", [
        "/api/crowd/nine",
        "/api/flows/1.5",
        "/api/tiles/0/x/0",
        "/api/tiles/0/0/0?window=abc",
        "/city?zoom=1.5",
        "/api/communities?min_similarity=often",
        "/api/spikes?z=high",
    ])
    def test_unparsable_param_is_a_400_and_not_cached(self, pipeline_result, path):
        from repro.obs import observed

        app = CrowdWebApp(pipeline_result)
        with observed() as o:
            for _ in range(2):
                status, _headers, body = app.handle("GET", path, None)
                assert status == 400
                assert "error" in json.loads(body)
            assert o.registry.counter("repro_web_renders_total") == 0
        assert len(app.cache) == 0

    def test_oversized_query_string_is_rejected_before_parsing(self, pipeline_result, monkeypatch):
        from repro.obs import observed
        from repro.web import server

        parses = []
        real_parse_qs = server.parse_qs
        monkeypatch.setattr(
            server, "parse_qs", lambda q: parses.append(q) or real_parse_qs(q)
        )
        app = CrowdWebApp(pipeline_result)
        at_limit = "utm=" + "x" * (server.MAX_QUERY_BYTES - 4)
        with observed() as o:
            assert app.handle("GET", f"/city?{at_limit}", None)[0] == 200
            assert len(parses) == 1
            for path in ("/api/stats", "/city", "/api/tiles/0/0/0"):
                status, _headers, body = app.handle("GET", f"{path}?{at_limit}x", None)
                assert status == 414
                assert "error" in json.loads(body)
            assert len(parses) == 1
            assert o.registry.counter("repro_web_renders_total") == 1
        assert len(app.cache) == 1


class TestRouteTable:
    """One table declares each route: its shape, label, params and render."""

    @pytest.mark.parametrize("path", [
        "/users/a", "/users/zzz", "/city/extra?window=3", "/animation/z", "/occupancy/2",
        "/communities/1", "/analytics/q", "/x/y", "/user/u0006/x", "/api/users/x",
        "/api/tiles/0/0/0/0", "/api/crowd/9/x",
    ])
    def test_a_path_with_an_extra_segment_is_a_404_that_renders_nothing(
        self, pipeline_result, path
    ):
        from repro.obs import observed

        app = CrowdWebApp(pipeline_result)
        with observed() as o:
            status, headers, body = app.handle("GET", path, None)
            assert o.registry.counter("repro_web_renders_total") == 0
        assert status == 404
        assert headers == [("Content-Type", "application/json")]
        assert json.loads(body) == {"error": path.split("?")[0]}
        assert len(app.cache) == 0

    def test_unknown_paths_share_one_endpoint_label(self, pipeline_result):
        from repro.obs import observed
        from repro.web import server

        app = CrowdWebApp(pipeline_result)
        with observed() as o:
            for i in range(200):
                assert app.handle("GET", f"/nope{i}", None)[0] == 404
            assert app.handle("POST", "/nope", None)[0] == 404
            payload = o.metrics_payload()
        assert list(payload["counters"]["repro_web_requests_total"]) == [server.UNROUTED]
        assert payload["counters"]["repro_web_requests_total"][server.UNROUTED] == 201
        assert list(payload["histograms"]["repro_web_request_latency_s"]) == [server.UNROUTED]

    def test_the_labels_perfbench_filters_on_are_unchanged(self, pipeline_result):
        from repro.obs import observed

        app = CrowdWebApp(pipeline_result)
        with observed() as o:
            assert app.handle("POST", "/api/refresh", None)[0] == 200
            assert app.handle("GET", "/api/cache", None)[0] == 200
            assert app.handle("GET", "/metrics", None)[0] == 200
            requests = o.metrics_payload()["counters"]["repro_web_requests_total"]
        assert sorted(requests) == ["/api/cache", "/api/refresh", "/metrics"]

    def test_every_label_is_in_the_documented_route_list(self):
        from pathlib import Path

        from repro.web import ROUTES

        serving = Path(__file__).resolve().parents[2] / "docs" / "serving.md"
        section = serving.read_text(encoding="utf-8").split("\n## Routes\n", 1)[1]
        section = section.split("\n## ", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("| `")]
        documented = [row.split("|")[2].strip().strip("`") for row in rows]
        assert sorted(documented) == sorted(route.label for route in ROUTES.values())

    def test_shapes_put_words_before_values(self):
        from repro.web import ROUTES

        for shape, route in ROUTES.items():
            n_words = sum(isinstance(part, str) for part in shape)
            assert all(part is ... for part in shape[n_words:]), shape
            words = "/" + "/".join(shape[:n_words])
            assert route.label == (words if n_words == len(shape) else words + "/:id"), shape


class TestServedFromBuild:
    """Renders read the build's outputs instead of recomputing them."""

    def test_occupancy_bodies_equal_a_fresh_timelines(self, app, pipeline_result):
        from dataclasses import replace

        fresh = CrowdWebApp(
            replace(pipeline_result, timeline=pipeline_result.aggregator.timeline())
        )
        for path in ("/api/occupancy", "/occupancy"):
            status, _headers, body = app.handle("GET", path)
            assert status == 200
            assert body == fresh.handle("GET", path)[2]

    def test_no_render_recomputes_the_timeline(self, pipeline_result, monkeypatch):
        from repro.crowd import CrowdAggregator

        calls = []
        real_timeline = CrowdAggregator.timeline

        def spy(self, *args, **kwargs):
            calls.append(args)
            return real_timeline(self, *args, **kwargs)

        monkeypatch.setattr(CrowdAggregator, "timeline", spy)
        app = CrowdWebApp(pipeline_result, cache_entries=10_000)
        app.warm()
        uid = sorted(pipeline_result.profiles)[0]
        for path in ("/occupancy", "/api/occupancy", "/communities", "/analytics",
                     "/animation", "/api/animation", "/api/communities", "/api/spikes",
                     "/api/flows/0", f"/api/metrics/{uid}", "/city?window=3&zoom=1"):
            assert app.handle("GET", path)[0] == 200, path
        assert len(app.cache) > 100
        assert calls == []


class TestUserPageGolden:
    """``/user/<id>`` on the small fixture: exact bytes, and the drawn content.

    The place graph's nodes sit on a circle in sorted-label order; the
    counts, labels and tooltips below are the ones the page had under the
    earlier spring layout, where only the coordinates differed.
    """

    SHA256 = "be962883d8ff614fd3ee3774716bd3db68f633ff11dca341b8a7416168fc45f2"
    LABELS = ["Places visited by u0006", "Entertainment", "Eatery", "Residence",
              "Work", "Outdoors", "Shops"]
    TOOLTIPS = ["CrowdWeb — u0006", "Entertainment: 5 visits", "Eatery: 84 visits",
                "Residence: 48 visits", "Work: 20 visits", "Outdoors: 18 visits",
                "Shops: 5 visits"]

    def test_user_page_bytes_and_content(self, app, pipeline_result):
        import hashlib
        import re

        assert sorted(pipeline_result.profiles)[0] == "u0006"
        status, _headers, body = app.handle("GET", "/user/u0006")
        assert status == 200
        text = body.decode("utf-8")
        assert text.count("<circle") == 6
        assert text.count("<line") == 45
        assert re.findall(r"<text[^>]*>(.*?)</text>", text) == self.LABELS
        assert re.findall(r"<title>(.*?)</title>", text) == self.TOOLTIPS
        assert hashlib.sha256(body).hexdigest() == self.SHA256

    def test_each_refresh_renders_once_more(self, pipeline_result):
        from repro.obs import observed

        app = CrowdWebApp(pipeline_result)
        with observed() as o:
            for expected in (1, 2, 3):
                first = app.handle("GET", "/user/u0006")
                assert first[0] == 200
                assert app.handle("GET", "/user/u0006")[2] == first[2]
                assert o.registry.counter("repro_web_renders_total") == expected
                app.handle("POST", "/api/refresh")


class TestWarmCapacity:
    """Warm never outgrows the cache and keeps the hottest keys resident."""

    @pytest.fixture
    def key_space(self, pipeline_result):
        return CrowdWebApp(pipeline_result, cache_entries=10_000).warm_paths()

    def test_warm_paths_are_a_capped_priority_prefix(self, pipeline_result, key_space):
        n = len(key_space) - 2
        app = CrowdWebApp(pipeline_result, cache_entries=n)
        paths = app.warm_paths()
        assert len(paths) <= n
        assert paths == key_space[:n]
        # User pages are the tail, so only they fall off the end.
        first_user_page = next(i for i, p in enumerate(key_space) if p.startswith("/user/"))
        assert first_user_page < n
        assert all(p.startswith("/user/") for p in key_space[first_user_page:])

    def test_warm_fills_without_evicting_and_drops_a_user_page_next(
        self, pipeline_result, key_space
    ):
        from repro.obs import observed

        n = len(key_space) - 2
        app = CrowdWebApp(pipeline_result, cache_entries=n)
        with observed() as o:
            resident = app.warm()
            assert o.registry.counter("repro_web_cache_evictions_total") == 0
            (precompute,) = [s for s in o.tracer.roots() if s.name == "web.precompute"]
            assert precompute.attrs["entries"] == resident
            assert precompute.attrs["capacity"] == n
        assert resident == len(app.cache) == n

        # One store past capacity evicts the coolest warmed entry.
        app.handle("GET", "/api/flows/0", None)
        coolest = app.warm_paths()[-1]
        assert coolest.startswith("/user/")
        with observed() as o:
            for path in ("/api/stats", "/api/crowd/9", "/api/tiles/0/0/0?window=9"):
                assert app.handle("GET", path, None)[0] == 200
            assert o.registry.counter("repro_web_renders_total") == 0
            assert app.handle("GET", coolest, None)[0] == 200
            assert o.registry.counter("repro_web_renders_total") == 1


class TestCacheRoutes:
    def test_cache_info_route(self, pipeline_result):
        app = CrowdWebApp(pipeline_result)
        app.handle("GET", "/api/users", None)
        status, _headers, body = app.handle("GET", "/api/cache", None)
        assert status == 200
        info = json.loads(body)
        assert info["entries"] == 1
        assert info["generation"] == 0
        assert info["fingerprint"] == app.fingerprint

    def test_only_post_refresh_invalidates(self, pipeline_result):
        app = CrowdWebApp(pipeline_result)
        warmed = app.warm()
        generation = app.cache.generation
        status, _headers, body = app.handle("GET", "/api/refresh", None)
        assert status == 404
        assert "error" in json.loads(body)
        assert len(app.cache) == warmed
        assert app.cache.generation == generation
        status, _headers, body = app.handle("POST", "/api/refresh", None)
        assert status == 200
        assert json.loads(body) == {"invalidated": warmed, "generation": generation + 1}
        assert len(app.cache) == 0

    def test_metrics_route_is_never_cached(self, pipeline_result):
        from repro.obs import observed
        app = CrowdWebApp(pipeline_result)
        with observed():
            app.handle("GET", "/api/users", None)
            status, headers, body = app.handle("GET", "/metrics", None)
            assert status == 200
            assert ("Cache-Control", "no-store") in headers
            first = json.loads(body)
            _status, _headers, body = app.handle("GET", "/metrics", None)
            second = json.loads(body)
        # The second snapshot saw more requests — not a replay of the first.
        total = lambda payload: sum(  # noqa: E731
            payload["counters"]["repro_web_requests_total"].values()
        )
        assert total(second) > total(first)


class TestSpikesRoute:
    def test_route(self, app):
        status, ctype, body = get(app, "/api/spikes?z=3.5")
        assert status == 200
        payload = json.loads(body)
        assert payload["z_threshold"] == 3.5


class TestObservability:
    def test_metrics_endpoint_when_disabled(self, app):
        status, ctype, body = get(app, "/metrics")
        assert status == 200
        assert ctype == "application/json"
        payload = json.loads(body)
        assert payload["enabled"] is False
        assert payload["counters"] == {}

    def test_traced_requests_feed_the_metrics_endpoint(self, app,
                                                       pipeline_result):
        from repro.obs import observed

        uid = sorted(pipeline_result.profiles)[0]
        with observed():
            get(app, "/api/users")
            get(app, f"/api/user/{uid}")
            get(app, f"/api/user/{uid}")
            get(app, "/api/crowd/banana")  # a 400
            status, _, body = get(app, "/metrics")
        assert status == 200
        payload = json.loads(body)
        assert payload["enabled"] is True
        requests = payload["counters"]["repro_web_requests_total"]
        # Endpoint labels are normalized: ids collapse to :id.
        assert requests["/api/users"] == 1
        assert requests["/api/user/:id"] == 2
        assert payload["counters"]["repro_web_errors_total"]["/api/crowd/:id"] == 1
        latency = payload["histograms"]["repro_web_request_latency_s"]
        assert latency["/api/user/:id"]["count"] == 2
        assert len(latency["/api/user/:id"]["counts"]) == \
            len(latency["/api/user/:id"]["buckets"]) + 1

    def test_request_spans_record_endpoint_and_status(self, app):
        from repro.obs import observed

        with observed() as o:
            get(app, "/user/ghost")
        (root,) = o.tracer.export()
        assert root["name"] == "web.request"
        assert root["attrs"]["endpoint"] == "/user/:id"
        assert root["attrs"]["status"] == 404


class TestServeFromProfiles:
    def test_prepare_from_profiles(self, small_ds, tmp_path):
        """Loaded profiles go through run_pipeline's own phases 1 and 3."""
        from dataclasses import replace

        from repro.experiments import small_pipeline_config
        from repro.persistence import load_profiles, save_profiles
        from repro.pipeline import run_pipeline

        config = replace(small_pipeline_config(), pattern_tolerance=1, evidence_tolerance=2)
        mined = run_pipeline(small_ds, config)
        path = save_profiles(mined.profiles, tmp_path / "p.json")
        result = run_pipeline(small_ds, config, profiles=load_profiles(path))
        assert result.n_users == mined.n_users
        assert [snap.n_users for snap in result.timeline] == [
            snap.n_users for snap in mined.timeline
        ]
        assert [snap.to_dict() for snap in result.timeline] == [
            snap.to_dict() for snap in mined.timeline
        ]
        # The rebuilt platform serves identically.
        assert CrowdWebAPI(result).crowd_summary() == CrowdWebAPI(mined).crowd_summary()
        server = CrowdWebServer(result, port=0).start()
        try:
            with urllib.request.urlopen(server.url + "/api/crowd", timeout=10) as resp:
                assert resp.status == 200
        finally:
            server.stop()

    def test_profiles_flag_hands_loaded_profiles_to_run_pipeline(
        self, pipeline_result, tmp_path, monkeypatch
    ):
        from repro.persistence import save_profiles
        from repro.web import __main__ as web_main

        path = save_profiles(pipeline_result.profiles, tmp_path / "p.json")
        calls = []
        factories = []

        class FakeServer:
            def __init__(self, host, port, result_factory, warm):
                factories.append(result_factory)
                self.url = "http://fake"

            def serve_forever(self):
                pass

        monkeypatch.setattr(web_main, "CrowdWebServer", FakeServer)
        monkeypatch.setattr(
            web_main, "run_pipeline",
            lambda dataset, config, **kwargs: calls.append(kwargs) or pipeline_result,
        )
        assert web_main.main(["--profiles", str(path)]) == 0
        (factory,) = factories
        assert factory() is pipeline_result
        (kwargs,) = calls
        assert sorted(kwargs["profiles"]) == sorted(pipeline_result.profiles)
