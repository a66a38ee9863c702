"""The HTTP layer of the platform: a cached, threaded service architecture.

Routes
------
===============================  =======================================
``GET /``                        dashboard (preprocess summary, occupancy)
``GET /users``                   user directory
``GET /user/<id>``               one user's patterns + place graph
``GET /city?window=<i>&zoom=<z>`` the tiled crowd view at one time window
``GET /animation``               the automated crowd-movement animation
``GET /api/users``               JSON user list
``GET /api/user/<id>``           JSON profile
``GET /api/crowd/<i>``           JSON snapshot
``GET /api/crowd``               JSON occupancy summary
``GET /api/flows/<i>``           JSON flows window i → i+1
``GET /api/tiles``               JSON tile-scheme description
``GET /api/tiles/<z>/<x>/<y>``   JSON tile (``?window=<i>``)
``GET /api/animation``           JSON animation frames
``GET /api/stats``               JSON dataset statistics
``GET /api/occupancy``           JSON per-cell occupancy across all windows
``GET /api/communities``         JSON behavioural communities
``GET /api/metrics/<id>``        JSON mobility analytics for one user
``GET /api/cache``               JSON cache state (entries, generation)
``GET|POST /api/refresh``        invalidate the response cache
``GET /metrics``                 JSON observability snapshot (never cached)
===============================  =======================================

Service architecture (see ``docs/serving.md``)
----------------------------------------------
:class:`CrowdWebApp` is the socket-free service core: a render function
(:func:`_dispatch` over :class:`~repro.web.api.CrowdWebAPI` /
:class:`~repro.web.pages.Pages`) behind a
:class:`~repro.web.cache.ResponseCache`.  The hot path is a dict lookup:
cacheable routes render **once**, then serve pre-encoded bytes with strong
ETags, ``Last-Modified``, ``304`` revalidation, and pre-compressed gzip
twins.  :class:`CrowdWebServer` adds the ``ThreadingHTTPServer`` plumbing
— and binds its socket *before* the pipeline result exists: constructed
with ``result_factory``, it answers ``503`` + ``Retry-After`` while the
precompute is in flight instead of leaving the first client hanging.

Every request runs inside a ``web.request`` trace span with latency
recorded per normalized endpoint (``/user/:id``); cache misses add a
``web.render`` child span.  All of it is a no-op until observability is
enabled.
"""

from __future__ import annotations

import json
import threading
import time
from email.utils import parsedate_to_datetime
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlencode, urlparse

from ..obs import get_observer
from ..pipeline import PipelineResult
from .api import CrowdWebAPI
from .cache import CacheEntry, CacheKey, ResponseCache, dataset_fingerprint
from .pages import Pages

__all__ = ["CrowdWebApp", "CrowdWebServer", "RETRY_AFTER_S"]

#: ``Retry-After`` seconds advertised while the pipeline precompute runs.
RETRY_AFTER_S = 1

#: Routes that must never be served from (or stored into) the cache.
_UNCACHEABLE = frozenset({"/metrics", "/api/refresh", "/api/cache"})

HeaderList = List[Tuple[str, str]]
WebResponse = Tuple[int, HeaderList, bytes]


def _endpoint_of(segments: List[str]) -> str:
    """Normalize a request path to a bounded-cardinality endpoint label.

    Keeps the leading route words (two after ``api``, one otherwise) and
    collapses the trailing identifier segments to ``:id``.
    """
    if not segments:
        return "/"
    keep = 2 if segments[0] == "api" else 1
    parts = segments[:keep] + [":id"] * min(1, len(segments) - keep)
    return "/" + "/".join(parts)


def _dispatch(api: CrowdWebAPI, pages: Pages, parsed, segments, query) -> Tuple[int, str, str]:
    """The routing table proper: one render, behind :meth:`CrowdWebApp.handle`."""

    def ok_json(payload) -> Tuple[int, str, str]:
        return 200, "application/json", json.dumps(payload)

    def ok_html(body: str) -> Tuple[int, str, str]:
        return 200, "text/html; charset=utf-8", body

    def not_found(message: str = "not found") -> Tuple[int, str, str]:
        return 404, "application/json", json.dumps({"error": message})

    try:
        if not segments:
            return ok_html(pages.home())
        if segments[0] == "users":
            return ok_html(pages.users())
        if segments[0] == "user" and len(segments) == 2:
            page = pages.user(segments[1])
            return ok_html(page) if page is not None else not_found(f"user {segments[1]}")
        if segments[0] == "city":
            window = int(query.get("window", ["9"])[0])
            zoom = int(query.get("zoom", ["2"])[0])
            return ok_html(pages.city(window, zoom=zoom))
        if segments[0] == "animation":
            return ok_html(pages.animation())
        if segments[0] == "occupancy":
            return ok_html(pages.occupancy())
        if segments[0] == "communities":
            return ok_html(pages.communities())
        if segments[0] == "analytics":
            return ok_html(pages.analytics())
        if segments[0] == "api":
            if len(segments) == 2 and segments[1] == "users":
                return ok_json(api.users())
            if len(segments) == 3 and segments[1] == "user":
                payload = api.user(segments[2])
                return ok_json(payload) if payload is not None else not_found(
                    f"user {segments[2]}"
                )
            if len(segments) == 2 and segments[1] == "crowd":
                return ok_json(api.crowd_summary())
            if len(segments) == 3 and segments[1] == "crowd":
                return ok_json(api.crowd(int(segments[2])))
            if len(segments) == 3 and segments[1] == "flows":
                return ok_json(api.flows(int(segments[2])))
            if len(segments) == 2 and segments[1] == "tiles":
                return ok_json(api.tile_scheme())
            if len(segments) == 5 and segments[1] == "tiles":
                window = int(query.get("window", ["9"])[0])
                return ok_json(
                    api.tile(
                        int(segments[2]), int(segments[3]), int(segments[4]),
                        window=window,
                    )
                )
            if len(segments) == 2 and segments[1] == "animation":
                return ok_json(api.animation())
            if len(segments) == 2 and segments[1] == "stats":
                return ok_json(api.stats())
            if len(segments) == 2 and segments[1] == "occupancy":
                return ok_json(api.occupancy())
            if len(segments) == 2 and segments[1] == "communities":
                min_similarity = float(query.get("min_similarity", ["0.05"])[0])
                return ok_json(api.communities(min_similarity))
            if len(segments) == 2 and segments[1] == "spikes":
                z = float(query.get("z", ["4.0"])[0])
                return ok_json(api.spikes(z))
            if len(segments) == 3 and segments[1] == "metrics":
                payload = api.user_metrics(segments[2])
                return ok_json(payload) if payload is not None else not_found(
                    f"metrics for {segments[2]}"
                )
        return not_found(parsed.path)
    except (ValueError, IndexError) as exc:
        return 400, "application/json", json.dumps({"error": str(exc)})


def _header(headers: Optional[Mapping], name: str) -> Optional[str]:
    """A request header by name from a Message or a plain dict."""
    if headers is None:
        return None
    value = headers.get(name)
    if value is None:
        value = headers.get(name.lower())
    return value


class CrowdWebApp:
    """The socket-free service core: render functions behind a response cache.

    ``handle`` is everything the HTTP handler does per request; it takes
    the method, raw path, and request headers and returns
    ``(status, header_list, body_bytes)`` — directly testable without a
    socket, and shared by the warm-up precompute.
    """

    def __init__(self, result: PipelineResult, cache_entries: int = 512) -> None:
        self.result = result
        self.api = CrowdWebAPI(result)
        self.pages = Pages(result)
        self.fingerprint = dataset_fingerprint(result)
        self.cache = ResponseCache(self.fingerprint, max_entries=cache_entries)

    # ------------------------------------------------------------- requests

    def handle(
        self, method: str, path: str, headers: Optional[Mapping] = None
    ) -> WebResponse:
        """Serve one request: cache lookup, conditional, content negotiation."""
        parsed = urlparse(path)
        segments = [s for s in parsed.path.split("/") if s]
        query = parse_qs(parsed.query)

        observer = get_observer()
        if not observer.enabled:
            return self._handle_inner(method, parsed, segments, query, headers)

        endpoint = _endpoint_of(segments)
        with observer.span("web.request", endpoint=endpoint) as span:
            start = time.perf_counter()
            status, out_headers, body = self._handle_inner(
                method, parsed, segments, query, headers
            )
            elapsed_s = time.perf_counter() - start
            span.set("status", status)
            observer.observe("repro_web_request_latency_s", elapsed_s, label=endpoint)
            observer.inc("repro_web_requests_total", label=endpoint)
            observer.inc("repro_web_response_bytes", len(body))
            if status >= 400:
                observer.inc("repro_web_errors_total", label=endpoint)
        return status, out_headers, body

    def _handle_inner(
        self, method: str, parsed, segments, query, headers: Optional[Mapping]
    ) -> WebResponse:
        normalized = "/" + "/".join(segments)
        if method == "POST":
            if normalized == "/api/refresh":
                return self._refresh()
            return self._json_response(404, {"error": f"no POST route {normalized}"})
        if normalized == "/api/refresh":
            return self._refresh()
        if normalized == "/api/cache":
            return self._json_response(200, self.cache.info())
        if normalized == "/metrics":
            payload = get_observer().metrics_payload()
            status, out_headers, body = self._json_response(200, payload)
            return status, out_headers + [("Cache-Control", "no-store")], body

        key = self._cache_key(segments, query)
        entry = self.cache.lookup(key)
        if entry is None:
            status, content_type, text = self._render(parsed, segments, query)
            if status != 200:
                # Errors are never cached (and carry no validators).
                return status, [("Content-Type", content_type)], text.encode("utf-8")
            entry = self.cache.store(key, text.encode("utf-8"), content_type)
        return self._serve_entry(entry, headers)

    def _cache_key(self, segments, query) -> CacheKey:
        canonical_query = urlencode(
            sorted((name, value) for name, values in query.items() for value in values)
        )
        return self.cache.key("GET", "/" + "/".join(segments), canonical_query)

    def _render(self, parsed, segments, query) -> Tuple[int, str, str]:
        """One real render (a cache miss): traced and counted."""
        observer = get_observer()
        if not observer.enabled:
            return _dispatch(self.api, self.pages, parsed, segments, query)
        endpoint = _endpoint_of(segments)
        with observer.span("web.render", endpoint=endpoint):
            start = time.perf_counter()
            result = _dispatch(self.api, self.pages, parsed, segments, query)
            observer.observe(
                "repro_web_render_latency_s",
                time.perf_counter() - start,
                label=endpoint,
            )
            observer.inc("repro_web_renders_total")
        return result

    def _serve_entry(self, entry: CacheEntry, headers: Optional[Mapping]) -> WebResponse:
        observer = get_observer()
        validators: HeaderList = [
            ("ETag", entry.etag),
            ("Last-Modified", entry.last_modified),
            ("Vary", "Accept-Encoding"),
        ]
        if self._not_modified(entry, headers):
            observer.inc("repro_web_not_modified_total")
            return 304, validators, b""
        body = entry.body
        out_headers = [("Content-Type", entry.content_type)] + validators
        accept = _header(headers, "Accept-Encoding") or ""
        if entry.gzip_body is not None and "gzip" in accept.lower():
            body = entry.gzip_body
            out_headers.append(("Content-Encoding", "gzip"))
            observer.inc("repro_web_gzip_responses_total")
        return 200, out_headers, body

    @staticmethod
    def _not_modified(entry: CacheEntry, headers: Optional[Mapping]) -> bool:
        """Does the request's validator still match this entry?"""
        if_none_match = _header(headers, "If-None-Match")
        if if_none_match is not None:
            candidates = [tag.strip() for tag in if_none_match.split(",")]
            return entry.etag in candidates or "*" in candidates
        if_modified_since = _header(headers, "If-Modified-Since")
        if if_modified_since is not None:
            try:
                their_time = parsedate_to_datetime(if_modified_since)
                our_time = parsedate_to_datetime(entry.last_modified)
            except (TypeError, ValueError):
                return False
            return our_time <= their_time
        return False

    @staticmethod
    def _json_response(status: int, payload: Dict) -> WebResponse:
        return (
            status,
            [("Content-Type", "application/json")],
            json.dumps(payload).encode("utf-8"),
        )

    def _refresh(self) -> WebResponse:
        """Explicit invalidation: drop cached responses and tile aggregates."""
        dropped = self.cache.invalidate()
        self.api.tiles.invalidate()
        return self._json_response(
            200, {"invalidated": dropped, "generation": self.cache.generation}
        )

    # -------------------------------------------------------------- warm-up

    def warm_paths(self) -> List[str]:
        """The hot key space in priority order, never more than the cache holds.

        Site shell routes first, then the crowd windows, then zoom 0-1
        tiles, then every ``/api/user/<id>``; the ``/user/<id>`` HTML pages
        (the costliest render by far) take whatever room is left.
        """
        paths = ["/", "/users", "/api/users", "/api/stats", "/api/crowd",
                 "/api/occupancy", "/api/tiles"]
        windows = range(len(self.result.timeline))
        for window in windows:
            paths.append(f"/api/crowd/{window}")
            paths.append(f"/city?window={window}")
        warm_zoom = min(1, self.api.tiles.max_zoom)
        for window in windows:
            for zoom in range(warm_zoom + 1):
                for x in range(2 ** zoom):
                    for y in range(2 ** zoom):
                        paths.append(f"/api/tiles/{zoom}/{x}/{y}?window={window}")
        user_ids = sorted(self.result.profiles)
        paths += [f"/api/user/{user_id}" for user_id in user_ids]
        paths += [f"/user/{user_id}" for user_id in user_ids]
        return paths[: self.cache.max_entries]

    def warm(self) -> int:
        """Precompute the hot key space; returns the entries resident after it.

        Runs through :meth:`handle`, so warmed routes are byte-identical to
        served ones and land in the same cache.  Keys are stored coolest
        first, so the LRU's next eviction drops the coolest warmed entry.
        """
        observer = get_observer()
        with observer.span("web.precompute") as span:
            for path in reversed(self.warm_paths()):
                self.handle("GET", path, None)
            resident = len(self.cache)
            span.set("entries", resident)
            span.set("capacity", self.cache.max_entries)
            observer.inc("repro_web_precomputed_total", resident)
        return resident


class CrowdWebServer:
    """The platform server.  ``serve_forever`` blocks; ``start`` runs in a
    daemon thread (used by tests and the examples).

    Constructed with a ready ``result``, it serves immediately.  Constructed
    with ``result_factory``, it binds its socket right away and builds the
    pipeline result in a background thread — requests arriving meanwhile get
    ``503`` with ``Retry-After: 1`` instead of a hung or refused connection.
    ``warm=True`` additionally precomputes the hot key space in the
    background once the result is in.
    """

    def __init__(
        self,
        result: Optional[PipelineResult] = None,
        host: str = "127.0.0.1",
        port: int = 8460,
        *,
        result_factory: Optional[Callable[[], PipelineResult]] = None,
        warm: bool = False,
        cache_entries: int = 512,
    ) -> None:
        if (result is None) == (result_factory is None):
            raise ValueError("pass exactly one of result= or result_factory=")
        self._app: Optional[CrowdWebApp] = None
        self._app_error: Optional[str] = None
        self._app_lock = threading.Lock()
        self._ready = threading.Event()
        self._warm = warm
        self._cache_entries = cache_entries
        owner = self

        class Handler(BaseHTTPRequestHandler):
            # Keep-alive: the load-bearing half of the keep-alive hot path —
            # requires every response to carry an exact Content-Length,
            # which _respond guarantees.
            protocol_version = "HTTP/1.1"
            # Nagle + delayed ACK adds tens of ms per request on a reused
            # connection; cached responses are single writes, so just send.
            disable_nagle_algorithm = True

            def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
                self._serve("GET")

            def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
                self._serve("POST")

            def _serve(self, method: str) -> None:
                app = owner._app
                if app is None:
                    # Not ready (warming up, or the build failed): drain any
                    # request body so a keep-alive client that already sent
                    # one is not left mid-stream, tell it to reconnect later
                    # with Connection: close, and actually close our side.
                    self._drain_body()
                    status, headers, body = owner._unready_response()
                    self._respond(status, headers + [("Connection", "close")], body)
                    # Each connection gets its own Handler instance, so this
                    # flag is never shared across request threads.
                    self.close_connection = True  # crowdlint: disable=CW701 -- per-connection instance state
                    return
                try:
                    status, headers, body = app.handle(method, self.path, self.headers)
                except Exception as exc:  # noqa: BLE001 - keep the worker alive
                    payload = json.dumps(
                        {"error": f"{type(exc).__name__}: {exc}"}
                    ).encode("utf-8")
                    status, headers, body = (
                        500, [("Content-Type", "application/json")], payload
                    )
                self._respond(status, headers, body)

            def _drain_body(self) -> None:
                try:
                    length = int(self.headers.get("Content-Length") or 0)
                except ValueError:
                    length = 0
                if length > 0:
                    self.rfile.read(length)

            def _respond(self, status: int, headers: HeaderList, body: bytes) -> None:
                self.send_response(status)
                for name, value in headers:
                    self.send_header(name, value)
                if status != 304:
                    self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                if body and status != 304:
                    self.wfile.write(body)

            def log_message(self, format: str, *args) -> None:
                pass  # quiet by default; the CLI prints the URL once

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._thread: Optional[threading.Thread] = None
        self._builder: Optional[threading.Thread] = None
        if result is not None:
            self._install_result(result)
        else:
            self._builder = threading.Thread(
                target=self._build_and_install, args=(result_factory,), daemon=True
            )
            self._builder.start()

    # ------------------------------------------------------------ readiness

    def _install_result(self, result: PipelineResult) -> None:
        app = CrowdWebApp(result, cache_entries=self._cache_entries)
        with self._app_lock:
            self._app = app
        self._ready.set()
        if self._warm:
            threading.Thread(target=app.warm, daemon=True).start()

    def _build_and_install(self, factory: Callable[[], PipelineResult]) -> None:
        try:
            result = factory()
        except Exception as exc:  # noqa: BLE001 - surfaced as a 500 body
            with self._app_lock:
                self._app_error = f"{type(exc).__name__}: {exc}"
            self._ready.set()
            return
        self._install_result(result)

    def _unready_response(self) -> WebResponse:
        error = self._app_error
        if error is not None:
            payload = json.dumps({"error": f"pipeline build failed: {error}"})
            return 500, [("Content-Type", "application/json")], payload.encode("utf-8")
        payload = json.dumps(
            {
                "error": "service warming up: pipeline precompute in flight",
                "retry_after_s": RETRY_AFTER_S,
            }
        )
        headers: HeaderList = [
            ("Content-Type", "application/json"),
            ("Retry-After", str(RETRY_AFTER_S)),
        ]
        return 503, headers, payload.encode("utf-8")

    def wait_ready(self, timeout: Optional[float] = None) -> bool:
        """Block until the pipeline result is in (True) or failed/timed out."""
        if not self._ready.wait(timeout):
            return False
        return self._app is not None

    # ------------------------------------------------------------ accessors

    @property
    def app(self) -> CrowdWebApp:
        app = self._app
        if app is None:
            raise RuntimeError(
                "server is still preparing its pipeline result "
                f"({self._app_error or 'precompute in flight'})"
            )
        return app

    @property
    def api(self) -> CrowdWebAPI:
        return self.app.api

    @property
    def pages(self) -> Pages:
        return self.app.pages

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "CrowdWebServer":
        """Serve in a background daemon thread (returns immediately)."""
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._server.serve_forever()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
