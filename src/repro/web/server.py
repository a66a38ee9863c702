"""The HTTP layer of the platform: a cached service behind a keep-alive loop.

Routes
------
:data:`ROUTES` declares every route once: its shape, endpoint label,
content type, the params it reads and its render.  ``docs/serving.md``
(*Routes*) lists them.

Service architecture (see ``docs/serving.md``)
----------------------------------------------
:class:`CrowdWebApp` is the socket-free service core: the route table's
renders (over :class:`~repro.web.api.CrowdWebAPI` /
:class:`~repro.web.pages.Pages`) behind a
:class:`~repro.web.cache.ResponseCache`.  The hot path is a dict lookup:
cacheable routes render **once**, then serve pre-encoded bytes with strong
ETags, ``Last-Modified``, ``304`` revalidation, and pre-compressed gzip
twins.  :class:`CrowdWebServer` puts it on a socket — and binds that
socket *before* the pipeline result exists: constructed with
``result_factory``, it answers ``503`` + ``Retry-After`` while the
precompute is in flight instead of leaving the first client hanging.

The HTTP layer is one small HTTP/1.1 connection loop, one thread per
connection (:func:`_serve` on a :class:`_ConnectionServer`).  It
splits each request head at its blank line, reads the request line and
lower-cased headers, drains any ``Content-Length`` body, calls
:meth:`CrowdWebApp.handle` and sends the response head and body in one
``sendall``.  It keeps ``http.server``'s limits: ``400`` for a malformed
request line, header or ``Content-Length``, ``414`` for a request line over
:data:`MAX_LINE_BYTES`, ``431`` for more than :data:`MAX_HEADERS` headers,
``501`` for a method other than GET/POST.  Each of those, and HTTP/1.0 or
``Connection: close``, closes the connection after the response;
:meth:`CrowdWebServer.stop` closes the ones still open.

Every request runs inside a ``web.request`` trace span with latency
recorded per endpoint label (``/user/:id``), and a path no route matches
is labelled :data:`UNROUTED`; cache misses add a ``web.render`` child
span.  All of it is a no-op until observability is enabled.
"""

from __future__ import annotations

import functools
import json
import socket
import socketserver
import threading
import time
from email.utils import formatdate, parsedate_to_datetime
from http import HTTPStatus
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from ..obs import get_observer
from ..pipeline import PipelineResult
from .api import CrowdWebAPI
from .cache import CacheEntry, ResponseCache, dataset_fingerprint
from .pages import Pages

__all__ = ["CrowdWebApp", "CrowdWebServer", "RETRY_AFTER_S", "ROUTES", "UNROUTED"]

#: ``Retry-After`` seconds advertised while the pipeline precompute runs.
RETRY_AFTER_S = 1

HeaderList = List[Tuple[str, str]]
WebResponse = Tuple[int, HeaderList, bytes]
RouteParams = Dict[str, Union[int, float, str]]

#: Longest query string a request may carry; longer ones get ``414``
#: before ``parse_qs`` runs (every route's own params fit in a few dozen).
MAX_QUERY_BYTES = 1024

_HTML = "text/html; charset=utf-8"
_JSON = "application/json"


def _first(query: Mapping[str, List[str]], name: str, default: str) -> str:
    """The first value of query param ``name``, or ``default``."""
    return query.get(name, [default])[0]


def _window(app: "CrowdWebApp", query: Mapping[str, List[str]]) -> int:
    """The ``window`` param (default 9), clamped to the timeline."""
    return max(0, min(int(_first(query, "window", "9")), len(app.result.timeline) - 1))


# Param parsers, ``(app, value segments, raw query) -> params``: what a route
# reads, parsed and clamped, in its render's argument order.  A route that
# reads no query never parses it.

def _no_params(app: "CrowdWebApp", values: List[str], raw_query: str) -> RouteParams:
    return {}


def _id(app: "CrowdWebApp", values: List[str], raw_query: str) -> RouteParams:
    return {"id": values[0]}


def _index(app: "CrowdWebApp", values: List[str], raw_query: str) -> RouteParams:
    return {"i": int(values[0])}


def _tile(app: "CrowdWebApp", values: List[str], raw_query: str) -> RouteParams:
    z, x, y = (int(value) for value in values)
    return {"z": z, "x": x, "y": y, "window": _window(app, parse_qs(raw_query))}


def _city(app: "CrowdWebApp", values: List[str], raw_query: str) -> RouteParams:
    query = parse_qs(raw_query)
    zoom = max(0, min(int(_first(query, "zoom", "2")), app.api.tiles.max_zoom))
    return {"window": _window(app, query), "zoom": zoom}


#: Float params land on a grid before they key the cache: ``min_similarity``
#: in [0, 1] on 2 decimals, a positive ``z`` on 1 decimal within
#: [0.1, ``Z_MAX``].  Out-of-range values pass through, for the render's
#: ``400``.  So each param keys at most 101 and 100 entries.
MIN_SIMILARITY_DECIMALS = 2
Z_DECIMALS = 1
Z_MAX = 10.0


def _min_similarity(app: "CrowdWebApp", values: List[str], raw_query: str) -> RouteParams:
    value = float(_first(parse_qs(raw_query), "min_similarity", "0.05"))
    if 0.0 <= value <= 1.0:
        value = round(value, MIN_SIMILARITY_DECIMALS) + 0.0  # + 0.0: no -0.0 key
    return {"min_similarity": value}


def _z_threshold(app: "CrowdWebApp", values: List[str], raw_query: str) -> RouteParams:
    value = float(_first(parse_qs(raw_query), "z", "4.0"))
    if value > 0.0:
        value = min(max(round(value, Z_DECIMALS), 0.1), Z_MAX)
    return {"z": value}


def _json_response(status: int, payload: Dict) -> WebResponse:
    return status, [("Content-Type", _JSON)], json.dumps(payload).encode("utf-8")


def _cache_info(app: "CrowdWebApp") -> WebResponse:
    return _json_response(200, app.cache.info())


def _metrics(app: "CrowdWebApp") -> WebResponse:
    status, headers, body = _json_response(200, get_observer().metrics_payload())
    return status, headers + [("Cache-Control", "no-store")], body


class _Route(NamedTuple):
    """One entry of :data:`ROUTES`."""

    #: The endpoint label of the request's span and metrics (``/user/:id``).
    label: str
    #: The body's content type.  ``None`` on a route that is never cached,
    #: whose render takes the app and answers the whole response.
    content_type: Optional[str]
    #: A :class:`Pages` method (HTML) or a :class:`CrowdWebAPI` one (JSON),
    #: called on the app's instance with the params' values, in order.
    render: Optional[Callable]
    params: Callable[["CrowdWebApp", List[str], str], RouteParams] = _no_params
    #: What a ``404`` says before the id when the render returns ``None``:
    #: the id names nothing.
    missing: str = ""
    method: str = "GET"


#: Every route, keyed by its shape: its words, then one ``...`` per value
#: segment.  ``docs/serving.md`` lists them with their params.
ROUTES: Dict[Tuple[object, ...], _Route] = {
    (): _Route("/", _HTML, Pages.home),
    ("users",): _Route("/users", _HTML, Pages.users),
    ("user", ...): _Route("/user/:id", _HTML, Pages.user, _id, "user"),
    ("city",): _Route("/city", _HTML, Pages.city, _city),
    ("animation",): _Route("/animation", _HTML, Pages.animation),
    ("occupancy",): _Route("/occupancy", _HTML, Pages.occupancy),
    ("communities",): _Route("/communities", _HTML, Pages.communities),
    ("analytics",): _Route("/analytics", _HTML, Pages.analytics),
    ("api", "users"): _Route("/api/users", _JSON, CrowdWebAPI.users),
    ("api", "user", ...): _Route("/api/user/:id", _JSON, CrowdWebAPI.user, _id, "user"),
    ("api", "crowd"): _Route("/api/crowd", _JSON, CrowdWebAPI.crowd_summary),
    ("api", "crowd", ...): _Route("/api/crowd/:id", _JSON, CrowdWebAPI.crowd, _index),
    ("api", "flows", ...): _Route("/api/flows/:id", _JSON, CrowdWebAPI.flows, _index),
    ("api", "tiles"): _Route("/api/tiles", _JSON, CrowdWebAPI.tile_scheme),
    ("api", "tiles", ..., ..., ...): _Route("/api/tiles/:id", _JSON, CrowdWebAPI.tile, _tile),
    ("api", "animation"): _Route("/api/animation", _JSON, CrowdWebAPI.animation),
    ("api", "stats"): _Route("/api/stats", _JSON, CrowdWebAPI.stats),
    ("api", "occupancy"): _Route("/api/occupancy", _JSON, CrowdWebAPI.occupancy),
    ("api", "communities"): _Route("/api/communities", _JSON, CrowdWebAPI.communities,
                                   _min_similarity),
    ("api", "spikes"): _Route("/api/spikes", _JSON, CrowdWebAPI.spikes, _z_threshold),
    ("api", "metrics", ...): _Route("/api/metrics/:id", _JSON, CrowdWebAPI.user_metrics, _id,
                                    "metrics for"),
    ("api", "cache"): _Route("/api/cache", None, _cache_info),
    ("metrics",): _Route("/metrics", None, _metrics),
    # Answered by CrowdWebApp._refresh, a call crowdlint's thread analysis follows.
    ("api", "refresh"): _Route("/api/refresh", None, None, method="POST"),
}

#: The endpoint label of every path no route matches: one series for all.
UNROUTED = "unrouted"

#: Path length -> how many words lead the routes of that length that have
#: value segments, most first.
_WORD_COUNTS: Dict[int, List[int]] = {
    length: sorted({shape.index(...) for shape in ROUTES if len(shape) == length and ... in shape},
                   reverse=True)
    for length in {len(shape) for shape in ROUTES}
}


def _match(segments: List[str]) -> Tuple[Optional[_Route], int]:
    """The route of a path's segments, and how many of them are its words.

    The longest run of leading words that names a route wins, so a value
    segment can never be read as a route word.
    """
    parts = tuple(segments)
    route = ROUTES.get(parts)  # a route of words only
    if route is not None:
        return route, len(parts)
    for n_words in _WORD_COUNTS.get(len(parts), ()):
        route = ROUTES.get(parts[:n_words] + (...,) * (len(parts) - n_words))
        if route is not None:
            return route, n_words
    return None, 0


def _body(app: "CrowdWebApp", route: _Route, params: RouteParams) -> Tuple[int, str, str]:
    """One render: ``(status, content type, text)``."""
    target = app.pages if route.content_type == _HTML else app.api
    try:
        payload = route.render(target, *params.values())
    except (ValueError, IndexError) as exc:
        return 400, _JSON, json.dumps({"error": str(exc)})
    if payload is None:
        return 404, _JSON, json.dumps({"error": f"{route.missing} {params['id']}"})
    if route.content_type == _JSON:
        return 200, _JSON, json.dumps(payload)
    return 200, _HTML, payload


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
        route, n_words = _match(segments)

        observer = get_observer()
        if not observer.enabled:
            return self._handle_inner(method, parsed, segments, route, n_words, headers)

        endpoint = UNROUTED if route is None else route.label
        with observer.span("web.request", endpoint=endpoint) as span:
            start = time.perf_counter()
            status, out_headers, body = self._handle_inner(
                method, parsed, segments, route, n_words, headers
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
        self, method: str, parsed, segments: List[str], route: Optional[_Route],
        n_words: int, headers: Optional[Mapping],
    ) -> WebResponse:
        if len(parsed.query) > MAX_QUERY_BYTES:
            return _json_response(414, {"error": f"query string over {MAX_QUERY_BYTES} bytes"})
        if route is None or route.method != method:
            if method == "POST":
                return _json_response(404, {"error": f"no POST route /{'/'.join(segments)}"})
            return _json_response(404, {"error": parsed.path})
        if route.method == "POST":
            return self._refresh()
        if route.content_type is None:
            return route.render(self)
        try:
            params = route.params(self, segments[n_words:], parsed.query)
        except ValueError as exc:
            # Unparsable params are a 400, never cached (as render errors).
            return _json_response(400, {"error": str(exc)})
        # The key is the route's words and the parsed params, so it holds one
        # entry per distinct body.  An id names its own body: it stays in the path.
        if "id" in params:
            key = self.cache.key("GET", "/" + "/".join(segments), "")
        else:
            # Names are fixed and values are int/float reprs: nothing to quote.
            query = "&".join([f"{name}={value}" for name, value in params.items()])
            key = self.cache.key("GET", "/" + "/".join(segments[:n_words]), query)
        entry = self.cache.lookup(key)
        if entry is None:
            status, content_type, text = self._render(route, params)
            if status != 200:
                # Errors are never cached (and carry no validators).
                return status, [("Content-Type", content_type)], text.encode("utf-8")
            entry = self.cache.store(key, text.encode("utf-8"), content_type)
        return self._serve_entry(entry, headers)

    def _render(self, route: _Route, params: RouteParams) -> Tuple[int, str, str]:
        """One real render (a cache miss): traced and counted."""
        observer = get_observer()
        with observer.span("web.render", endpoint=route.label):
            start = time.perf_counter()
            result = _body(self, route, params)
            observer.observe("repro_web_render_latency_s", time.perf_counter() - start,
                             label=route.label)
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

    def _refresh(self) -> WebResponse:
        """Explicit invalidation: drop cached responses and tile aggregates."""
        dropped = self.cache.invalidate()
        self.api.tiles.invalidate()
        return _json_response(200, {"invalidated": dropped, "generation": self.cache.generation})

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


# ---------------------------------------------------------------- HTTP/1.1

#: Longest request line or header line accepted, CRLF included (as ``http.server``).
MAX_LINE_BYTES = 65536
#: Most header lines one request may carry (as ``http.client``).
MAX_HEADERS = 100
#: Longest request head: the request line plus ``MAX_HEADERS`` header lines.
MAX_HEAD_BYTES = (MAX_HEADERS + 1) * MAX_LINE_BYTES
#: Seconds a closing connection keeps reading what the client still sends.
LINGER_S = 1.0
#: Seconds ``CrowdWebServer.stop`` waits, in all, for connection threads to end.
STOP_JOIN_S = 5.0

_RECV_BYTES = 65536
_METHODS = frozenset({"GET", "POST"})
_VERSIONS = frozenset({"HTTP/1.0", "HTTP/1.1"})
_STATUS_LINES = {s.value: f"HTTP/1.1 {s.value} {s.phrase}\r\n" for s in HTTPStatus}
_SERVER_LINE = "Server: CrowdWeb\r\n"
_CLOSE: HeaderList = [("Connection", "close")]


class _HttpError(Exception):
    """A request the connection loop refuses itself; the connection then closes."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The ``Date`` header for Unix time ``second``, formatted once a second."""
    return formatdate(second, usegmt=True)


def _read_head(sock: socket.socket, buffer: bytes) -> Tuple[Optional[bytes], bytes]:
    """The next request head (up to its blank line) and the bytes after it.

    The head is ``None`` when the client closed before sending a whole one.
    Blank lines before a request line are skipped, as RFC 9112 asks.
    """
    scanned = 0
    while True:
        buffer = buffer.lstrip(b"\r\n")
        end = buffer.find(b"\r\n\r\n", scanned)
        if end >= 0:
            return buffer[:end], buffer[end + 4:]
        if len(buffer) > MAX_LINE_BYTES and buffer.find(b"\r\n", 0, MAX_LINE_BYTES) < 0:
            raise _HttpError(414, "request line too long")
        if len(buffer) > MAX_HEAD_BYTES:
            raise _HttpError(431, "request head too large")
        scanned = max(0, len(buffer) - 3)
        chunk = sock.recv(_RECV_BYTES)
        if not chunk:
            return None, b""
        buffer += chunk


def _parse_head(head: bytes) -> Tuple[str, str, bool, Dict[str, str]]:
    """``(method, target, keep_alive, headers)`` of one request head.

    Header names are lower-cased; the first of repeated headers wins.
    """
    lines = head.decode("latin-1").split("\r\n")
    if len(lines[0]) + 2 > MAX_LINE_BYTES:
        raise _HttpError(414, "request line too long")
    words = lines[0].split()
    if len(words) != 3:
        raise _HttpError(400, f"bad request line {lines[0][:200]!r}")
    method, target, version = words
    if version not in _VERSIONS:
        status = 505 if version.startswith("HTTP/") else 400
        raise _HttpError(status, f"unsupported version {version[:200]!r}")
    keep_alive = version == "HTTP/1.1"
    if len(lines) > MAX_HEADERS + 1:
        raise _HttpError(431, f"more than {MAX_HEADERS} headers")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if len(line) + 2 > MAX_LINE_BYTES:
            raise _HttpError(431, "header line too long")
        name, colon, value = line.partition(":")
        name = name.strip().lower()
        if not colon or not name:
            raise _HttpError(400, f"bad header line {line[:200]!r}")
        if name not in headers:
            headers[name] = value.strip()
    connection = headers.get("connection", "").lower()
    if connection == "close":
        keep_alive = False
    elif connection == "keep-alive":
        keep_alive = True
    if target.startswith("//"):
        # As http.server: a client would read '//host/path' as another host.
        target = "/" + target.lstrip("/")
    return method, target, keep_alive, headers


def _content_length(headers: Mapping[str, str]) -> int:
    """The request body's length in bytes (0 without a body)."""
    if "transfer-encoding" in headers:
        raise _HttpError(501, "Transfer-Encoding is not supported")
    value = headers.get("content-length")
    if value is None:
        return 0
    if not (value.isascii() and value.isdigit()):
        raise _HttpError(400, f"bad Content-Length {value[:200]!r}")
    return int(value)


def _discard(sock: socket.socket, buffer: bytes, length: int) -> bytes:
    """Drop a ``length``-byte request body; returns the bytes after it."""
    if length <= len(buffer):
        return buffer[length:]
    length -= len(buffer)
    while length > 0:
        chunk = sock.recv(min(length, _RECV_BYTES))
        if not chunk:
            raise ConnectionError("client closed the connection mid-body")
        length -= len(chunk)
    return b""


def _send(sock: socket.socket, status: int, headers: HeaderList, body: bytes) -> None:
    """One response, head and body in a single ``sendall``.

    The head is the status line, ``Server``, ``Date``, the given headers in
    order, then ``Content-Length`` (none on a ``304``, which has no body).
    """
    lines = [_STATUS_LINES[status], _SERVER_LINE,
             "Date: ", _http_date(int(time.time())), "\r\n"]
    for name, value in headers:
        lines.append(f"{name}: {value}\r\n")
    if status == 304:
        lines.append("\r\n")
        body = b""
    else:
        lines.append(f"Content-Length: {len(body)}\r\n\r\n")
    sock.sendall("".join(lines).encode("latin-1") + body)


def _linger(sock: socket.socket) -> None:
    """Close our side, then read what the client still sends, for a while.

    Closing a socket with unread input makes the kernel reset the
    connection, which can destroy a response the client has not read yet.
    """
    sock.shutdown(socket.SHUT_WR)
    deadline = time.monotonic() + LINGER_S
    remaining = LINGER_S
    while remaining > 0:
        sock.settimeout(remaining)
        if not sock.recv(_RECV_BYTES):
            return
        remaining = deadline - time.monotonic()


def _serve(sock: socket.socket, owner: "CrowdWebServer") -> None:
    """One client connection: a loop of HTTP/1.1 requests until it closes.

    Each pass reads one head, drains the body its ``Content-Length``
    announces, answers through the owner's :class:`CrowdWebApp` and sends
    the response in one write.  Bytes past the body stay buffered for the
    next pass, so pipelined requests are answered in order.
    """
    # Responses are single writes; Nagle + delayed ACK would add tens of
    # milliseconds to each request on a reused connection.
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    buffer = b""
    try:
        while True:
            try:
                head, buffer = _read_head(sock, buffer)
                if head is None:
                    break
                method, target, keep_alive, headers = _parse_head(head)
                if method not in _METHODS:
                    raise _HttpError(501, f"unsupported method {method[:200]!r}")
                length = _content_length(headers)
                if length:
                    if headers.get("expect", "").lower() == "100-continue":
                        sock.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
                    buffer = _discard(sock, buffer, length)
            except _HttpError as exc:
                status, out_headers, body = _json_response(exc.status, {"error": str(exc)})
                _send(sock, status, out_headers + _CLOSE, body)
                break
            app = owner._app
            if app is None:
                # Not ready (building, or the build failed): tell the
                # client to come back on a new connection.
                status, out_headers, body = owner._unready_response()
                _send(sock, status, out_headers + _CLOSE, body)
                break
            try:
                status, out_headers, body = app.handle(method, target, headers)
            except Exception as exc:  # noqa: BLE001 - keep the worker alive
                status, out_headers, body = _json_response(
                    500, {"error": f"{type(exc).__name__}: {exc}"})
            _send(sock, status, out_headers, body)
            if not keep_alive:
                break
        _linger(sock)
    except OSError:
        return  # the client went away, or stop() shut the socket


class _ConnectionServer(socketserver.TCPServer):
    """A TCP server that runs each connection in its own tracked daemon thread.

    :meth:`close_connections` shuts every open connection's socket, which
    ends its loop's blocking read, and joins the threads.
    """

    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], owner: "CrowdWebServer") -> None:
        self.owner = owner
        self._lock = threading.Lock()
        self._connections: Dict[socket.socket, threading.Thread] = {}
        # No handler class: _serve_connection runs _serve itself.
        super().__init__(address, None)

    def process_request(self, request, client_address) -> None:  # crowdlint: disable=CW604 -- socketserver hook
        thread = threading.Thread(target=self._serve_connection,
                                  args=(request, client_address), daemon=True)
        with self._lock:
            self._connections[request] = thread
        try:
            thread.start()
        except RuntimeError:  # no thread to be had: socketserver closes the socket
            with self._lock:
                del self._connections[request]
            raise

    def _serve_connection(self, request, client_address) -> None:
        try:
            _serve(request, self.owner)
        except Exception:  # noqa: BLE001 - printed, as socketserver does
            self.handle_error(request, client_address)
        finally:
            with self._lock:
                del self._connections[request]
            self.shutdown_request(request)

    def close_connections(self, timeout: float) -> None:
        """Shut every open connection down and wait up to ``timeout`` s in all."""
        with self._lock:
            open_connections = list(self._connections.items())
        for sock, _thread in open_connections:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                continue  # its own thread closed it meanwhile
        deadline = time.monotonic() + timeout
        for _sock, thread in open_connections:
            thread.join(max(0.0, deadline - time.monotonic()))


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
        self._serving = threading.Event()
        self._warm = warm
        self._cache_entries = cache_entries
        self._server = _ConnectionServer((host, port), self)
        self._thread: Optional[threading.Thread] = None
        if result is not None:
            self._install_result(result)
        else:
            threading.Thread(target=self._build_and_install, args=(result_factory,),
                             daemon=True).start()

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
            return _json_response(500, {"error": f"pipeline build failed: {error}"})
        status, headers, body = _json_response(503, {
            "error": "service warming up: pipeline precompute in flight",
            "retry_after_s": RETRY_AFTER_S,
        })
        return status, headers + [("Retry-After", str(RETRY_AFTER_S))], body

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
    def address(self) -> Tuple[str, int]:
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "CrowdWebServer":
        """Serve in a background daemon thread (returns immediately)."""
        self._serving.set()
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._serving.set()
        self._server.serve_forever()

    def stop(self) -> None:
        """Stop accepting, close every open connection and join its thread."""
        if self._serving.is_set():
            # socketserver's shutdown waits for a serve_forever to exit, so
            # it would block for ever on a server that never served.
            self._server.shutdown()
        self._server.server_close()
        self._server.close_connections(STOP_JOIN_S)
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
