"""A minimal keep-alive HTTP/1.1 client and the closed-loop load driver.

The client speaks just enough HTTP for the CrowdWeb server: requests are
pre-encoded bytes, responses are read by ``Content-Length`` (``304`` has
no body).  Keeping the client this thin leaves the two cores to the server
process instead of to ``http.client`` parsing.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Seconds one response may take before it counts as a failed request.
REQUEST_TIMEOUT_S = 10.0


class HttpError(Exception):
    """The connection broke or the server sent something unparseable."""


@dataclass(frozen=True)
class Request:
    """One scheduled request: its route and how it asks for it."""

    method: str
    path: str
    gzip: bool = False
    etag: Optional[str] = None

    def encode(self) -> bytes:
        lines = [f"{self.method} {self.path} HTTP/1.1", "Host: 127.0.0.1"]
        if self.gzip:
            lines.append("Accept-Encoding: gzip")
        if self.etag is not None:
            lines.append(f"If-None-Match: {self.etag}")
        if self.method == "POST":
            lines.append("Content-Length: 0")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")

    def headers(self) -> Dict[str, str]:
        """The same request headers as a dict (for in-process handling)."""
        headers = {}
        if self.gzip:
            headers["Accept-Encoding"] = "gzip"
        if self.etag is not None:
            headers["If-None-Match"] = self.etag
        return headers


@dataclass
class Response:
    status: int
    headers: Dict[str, str]
    body: bytes
    wire_bytes: int


class Connection:
    """One keep-alive loopback connection.

    With ``spin=True`` the socket is non-blocking and reads busy-poll until
    the response arrives or ``timeout`` passes.  The closed loop uses this
    so that its own wake-up after each response, which on a virtual CPU can
    take longer than serving a cached response, stays out of the latency.
    """

    def __init__(self, port: int, timeout: float = REQUEST_TIMEOUT_S,
                 spin: bool = False) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._timeout = timeout
        self._deadline = 0.0
        self._spin = spin
        if spin:
            self._sock.setblocking(False)
        self._buffer = b""

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _fill(self) -> None:
        while True:
            try:
                chunk = self._sock.recv(262144)
                break
            except BlockingIOError:
                if time.perf_counter() > self._deadline:
                    raise TimeoutError("no response within the request timeout") from None
        if not chunk:
            raise HttpError("connection closed by server")
        self._buffer += chunk

    def send(self, raw: bytes) -> Response:
        self._deadline = time.perf_counter() + self._timeout
        if self._spin:
            view = memoryview(raw)
            while view:
                try:
                    view = view[self._sock.send(view):]
                except BlockingIOError:
                    if time.perf_counter() > self._deadline:
                        raise TimeoutError("request not sent within the timeout") from None
        else:
            self._sock.sendall(raw)
        while True:
            end = self._buffer.find(b"\r\n\r\n")
            if end >= 0:
                break
            self._fill()
        head = self._buffer[:end].decode("latin-1").split("\r\n")
        try:
            status = int(head[0].split(" ", 2)[1])
        except (IndexError, ValueError) as exc:
            raise HttpError(f"bad status line {head[0]!r}") from exc
        headers = {}
        for line in head[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = 0 if status == 304 else int(headers.get("content-length", "0"))
        total = end + 4 + length
        while len(self._buffer) < total:
            self._fill()
        body = self._buffer[end + 4:total]
        self._buffer = self._buffer[total:]
        return Response(status, headers, body, total)

    def request(self, request: Request) -> Response:
        return self.send(request.encode())


def get(port: int, path: str, **kwargs) -> Response:
    """One request on a fresh connection."""
    with Connection(port) as conn:
        return conn.request(Request("GET", path, **kwargs))


@dataclass
class LoadResult:
    """What the closed loop measured."""

    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Per-request latency in seconds; failed requests carry the timeout.
    latencies: List[float] = field(default_factory=list)
    wire_bytes: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


class _Expect:
    """What every response must satisfy.

    The body length of a route in one encoding never changes (renders are
    deterministic), so the first length seen — or the one given up front —
    pins every later response for that key.
    """

    def __init__(self, lengths: Optional[Dict[Tuple[str, bool], int]] = None) -> None:
        self.lengths: Dict[Tuple[str, bool], int] = dict(lengths or {})

    def check(self, request: Request, response: Response) -> Optional[str]:
        if request.method == "POST":
            return None if response.status == 200 else f"POST {request.path} -> {response.status}"
        if response.status == 304:
            if request.etag is None:
                return f"{request.path}: 304 to an unconditional request"
            return None
        if response.status != 200:
            return f"{request.path} -> {response.status}"
        if "gzip" in response.headers.get("content-encoding", "") and not request.gzip:
            return f"{request.path}: gzip body without Accept-Encoding"
        key = (request.path, "content-encoding" in response.headers)
        expected = self.lengths.setdefault(key, len(response.body))
        if expected != len(response.body):
            return f"{request.path}: body length {len(response.body)} != {expected}"
        return None


class ClosedLoop:
    """A closed loop on one spinning keep-alive connection, run in windows.

    Each :meth:`window` call cycles on through ``schedule`` from where the
    last one stopped, on the calling thread, until ``seconds`` pass or, with
    ``once``, until the schedule's end.  The connection, the ETags seen and
    the body lengths learnt carry over from window to window, so splitting
    a load into windows leaves the requests it sends unchanged.

    A refused connection, a timeout or a 5xx counts as a failed request
    (its latency is the timeout) and the loop reconnects; a wrong status
    or body is also recorded as a correctness mismatch.  A conditional
    request (``etag`` of ``""``) sends the last ETag this loop saw for its
    route, as a browser revalidating its copy would, and goes
    unconditional while it has seen none.
    """

    def __init__(self, port: int, schedule: Sequence[Request],
                 lengths: Optional[Dict[Tuple[str, bool], int]] = None) -> None:
        self.port = port
        self.schedule = schedule
        self._encoded = [None if r.etag == "" else r.encode() for r in schedule]
        self._expect = _Expect(lengths)
        self._etags: Dict[str, str] = {}
        self._conn: Optional[Connection] = None
        self._i = 0

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ClosedLoop":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def window(self, seconds: float, once: bool = False) -> LoadResult:
        schedule, encoded, etags = self.schedule, self._encoded, self._etags
        out = LoadResult()
        clock = time.perf_counter
        start = clock()
        deadline = start + seconds
        try:
            while clock() < deadline and not (once and self._i == len(schedule)):
                request = schedule[self._i % len(schedule)]
                raw = encoded[self._i % len(schedule)]
                self._i += 1
                if raw is None:
                    request = Request(request.method, request.path, request.gzip,
                                      etags.get(request.path))
                    raw = request.encode()
                out.attempted += 1
                t0 = clock()
                try:
                    if self._conn is None:
                        self._conn = Connection(self.port, spin=True)
                    response = self._conn.send(raw)
                except (OSError, HttpError):
                    out.failed += 1
                    out.latencies.append(REQUEST_TIMEOUT_S)
                    self.close()
                    continue
                out.wire_bytes += response.wire_bytes
                problem = (None if response.status >= 500
                           else self._expect.check(request, response))
                if response.status >= 500 or problem is not None:
                    out.failed += 1
                    out.latencies.append(REQUEST_TIMEOUT_S)
                    if problem is not None and len(out.mismatches) < 5:
                        out.mismatches.append(problem)
                    continue
                out.latencies.append(clock() - t0)
                if "etag" in response.headers:
                    etags[request.path] = response.headers["etag"]
        finally:
            out.wall_s = clock() - start
        return out
