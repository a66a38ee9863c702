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
    def test_prepare_from_profiles(self, pipeline_result, small_ds, tmp_path):
        from repro.experiments import small_pipeline_config
        from repro.persistence import save_profiles
        from repro.web.__main__ import prepare_from_profiles

        path = save_profiles(pipeline_result.profiles, tmp_path / "p.json")
        result = prepare_from_profiles(small_ds, small_pipeline_config(), path)
        assert result.n_users == pipeline_result.n_users
        # The rebuilt platform serves identically.
        api = CrowdWebAPI(result)
        payload = api.users()
        assert payload["n_users"] == pipeline_result.n_users
        server = CrowdWebServer(result, port=0).start()
        try:
            with urllib.request.urlopen(server.url + "/api/crowd", timeout=10) as resp:
                assert resp.status == 200
        finally:
            server.stop()
