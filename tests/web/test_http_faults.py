"""Fault injection on the live server's HTTP layer.

Every test drives a real ``CrowdWebServer`` over raw sockets, so it sees
exactly the bytes a client sees: malformed and oversized heads, bad
``Content-Length`` values, clients that vanish mid-request, failing
builds, HTTP/1.0, pipelining, and ``stop()`` with connections still open.
The last class pins the wire format to ``CrowdWebApp.handle`` byte for
byte over the hot key set the benchmark replays.
"""

from __future__ import annotations

import importlib
import json
import signal
import socket
import sys
import threading
import time
from email.utils import formatdate
from pathlib import Path
from typing import List, Tuple

import pytest

from repro.web import CrowdWebServer

#: Seconds a test waits for threads to exit or a socket to close.
SETTLE_S = 5.0

Headers = List[Tuple[str, str]]


class RawConnection:
    """One client socket that writes raw bytes and reads framed responses."""

    def __init__(self, server: CrowdWebServer) -> None:
        self.sock = socket.create_connection(server.address, timeout=SETTLE_S)
        self.buffer = b""

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "RawConnection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def send(self, raw: bytes) -> None:
        self.sock.sendall(raw)

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise EOFError("server closed the connection")
        self.buffer += chunk

    def response(self) -> Tuple[int, Headers, bytes]:
        """The next response: status, headers in wire order, body."""
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        head, self.buffer = self.buffer.split(b"\r\n\r\n", 1)
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers = [tuple(part.strip() for part in line.split(":", 1)) for line in lines[1:]]
        length = 0 if status == 304 else int(dict(
            (name.lower(), value) for name, value in headers).get("content-length", 0))
        while len(self.buffer) < length:
            self._fill()
        body, self.buffer = self.buffer[:length], self.buffer[length:]
        return status, headers, body

    def at_eof(self) -> bool:
        """Did the server close its side cleanly, with nothing more to read?

        A reset (unread input left on the server's side) raises instead.
        """
        return not self.buffer and self.sock.recv(65536) == b""


def header(headers: Headers, name: str):
    return dict((key.lower(), value) for key, value in headers).get(name.lower())


def get(path: str, *extra: str, version: str = "HTTP/1.1") -> bytes:
    lines = [f"GET {path} {version}", "Host: 127.0.0.1", *extra]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def post(path: str, body: bytes = b"", *extra: str) -> bytes:
    lines = [f"POST {path} HTTP/1.1", "Host: 127.0.0.1",
             f"Content-Length: {len(body)}", *extra]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def settle(new_threads) -> List[threading.Thread]:
    """The threads of ``new_threads()`` still alive after waiting for them."""
    deadline = time.monotonic() + SETTLE_S
    while new_threads() and time.monotonic() < deadline:
        time.sleep(0.01)
    return new_threads()


@pytest.fixture
def live(pipeline_result):
    """A ready server, and a probe for threads started since it was up."""
    server = CrowdWebServer(pipeline_result, port=0).start()
    before = set(threading.enumerate())

    def new_threads() -> List[threading.Thread]:
        return [t for t in threading.enumerate() if t not in before and t.is_alive()]

    try:
        yield server, new_threads
    finally:
        server.stop()


class TestMalformedRequests:
    def test_malformed_request_line_is_400_and_closes(self, live):
        server, _ = live
        with RawConnection(server) as conn:
            conn.send(b"NONSENSE\r\n\r\n")
            status, headers, _ = conn.response()
            assert status == 400
            assert header(headers, "Connection") == "close"
            assert conn.at_eof()

    @pytest.mark.parametrize("version,status", [("HTTP/2.0", 505), ("FTP/1.0", 400)])
    def test_unsupported_version(self, live, version, status):
        server, _ = live
        with RawConnection(server) as conn:
            conn.send(get("/api/stats", version=version))
            assert conn.response()[0] == status
            assert conn.at_eof()

    def test_request_line_over_64_kib_is_414(self, live):
        server, _ = live
        with RawConnection(server) as conn:
            conn.send(get("/" + "a" * 70_000))
            status, _, _ = conn.response()
            assert status == 414
            assert conn.at_eof()

    def test_too_many_headers_is_431(self, live):
        server, _ = live
        with RawConnection(server) as conn:
            conn.send(get("/api/stats", *(f"X-Filler-{i}: {i}" for i in range(101))))
            status, _, _ = conn.response()
            assert status == 431
            assert conn.at_eof()

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_is_400_and_closes(self, live, length):
        server, _ = live
        with RawConnection(server) as conn:
            conn.send(f"POST /api/refresh HTTP/1.1\r\nHost: x\r\n"
                      f"Content-Length: {length}\r\n\r\n".encode("latin-1"))
            status, headers, _ = conn.response()
            assert status == 400
            assert header(headers, "Connection") == "close"
            assert conn.at_eof()

    def test_unknown_method_is_501(self, live):
        server, _ = live
        with RawConnection(server) as conn:
            conn.send(b"DELETE /api/stats HTTP/1.1\r\nHost: x\r\n\r\n")
            status, _, _ = conn.response()
            assert status == 501
            assert conn.at_eof()


class TestDisconnects:
    def test_disconnect_mid_head_leaves_the_server_serving(self, live):
        server, new_threads = live
        with RawConnection(server) as conn:
            conn.send(b"GET /api/stats HTTP/1.1\r\nHost: 127.0.0.1\r\nAccept-")
        with RawConnection(server) as conn:
            conn.send(get("/api/stats"))
            assert conn.response()[0] == 200
        assert settle(new_threads) == []

    def test_disconnect_mid_body_leaves_the_server_serving(self, live):
        server, new_threads = live
        with RawConnection(server) as conn:
            conn.send(b"POST /api/refresh HTTP/1.1\r\nHost: x\r\n"
                      b"Content-Length: 100\r\n\r\nfoo=bar")
        with RawConnection(server) as conn:
            conn.send(get("/api/stats"))
            assert conn.response()[0] == 200
        assert settle(new_threads) == []


class TestConnectionHandling:
    def test_http_10_closes_after_the_response(self, live):
        server, _ = live
        with RawConnection(server) as conn:
            conn.send(get("/api/stats", version="HTTP/1.0"))
            status, _, body = conn.response()
            assert status == 200
            assert json.loads(body)
            assert conn.at_eof()

    def test_connection_close_closes_after_the_response(self, live):
        server, _ = live
        with RawConnection(server) as conn:
            conn.send(get("/api/stats", "Connection: close"))
            assert conn.response()[0] == 200
            assert conn.at_eof()

    def test_date_header_is_the_current_imf_fixdate(self, live):
        server, _ = live
        with RawConnection(server) as conn:
            before = int(time.time())
            conn.send(get("/api/stats"))
            _, headers, _ = conn.response()
            after = int(time.time())
        assert header(headers, "Date") in {
            formatdate(second, usegmt=True) for second in range(before, after + 1)}

    def test_post_with_body_then_get_on_one_connection(self, live):
        server, _ = live
        with RawConnection(server) as conn:
            conn.send(post("/api/refresh", b"foo=bar") + get("/api/stats"))
            status, _, body = conn.response()
            assert status == 200
            assert "invalidated" in json.loads(body)
            status, _, body = conn.response()
            assert status == 200
            assert "check-ins" in json.loads(body)

    def test_pipelined_gets_answer_in_order(self, live):
        server, _ = live
        paths = ["/api/stats", "/api/users", "/api/crowd", "/api/stats"]
        with RawConnection(server) as conn:
            conn.send(b"".join(get(path) for path in paths))
            answers = [conn.response() for _ in paths]
        for path, (status, _, body) in zip(paths, answers):
            assert status == 200
            assert body == server.app.handle("GET", path)[2]

    def test_exception_in_handle_is_500_and_keeps_the_connection(self, live):
        server, _ = live
        app = server.app
        real_handle = app.handle
        calls = []

        def flaky_handle(method, path, headers=None):
            calls.append(path)
            if len(calls) == 1:
                raise RuntimeError("synthetic handler failure")
            return real_handle(method, path, headers)

        app.handle = flaky_handle
        try:
            with RawConnection(server) as conn:
                conn.send(get("/api/stats"))
                status, _, body = conn.response()
                assert status == 500
                assert "synthetic handler failure" in json.loads(body)["error"]
                conn.send(get("/api/stats"))
                assert conn.response()[0] == 200
        finally:
            del app.handle


class TestConnectionStress:
    def test_concurrent_connections_leave_no_thread_or_record(self, live):
        server, new_threads = live
        errors = []

        def client() -> None:
            try:
                for _ in range(25):
                    with RawConnection(server) as conn:
                        conn.send(get("/api/stats") + get("/api/users", "Connection: close"))
                        assert [conn.response()[0] for _ in range(2)] == [200, 200]
                        assert conn.at_eof()
            except Exception as exc:  # noqa: BLE001 - surfaced via the errors list
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [threading.Thread(target=client) for _ in range(4)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in clients)
        assert errors == []
        assert settle(new_threads) == []
        assert server._server._connections == {}


class TestBuildFailure:
    def test_failed_build_drains_the_body_and_closes(self):
        failed = threading.Event()

        def factory():
            failed.set()
            raise RuntimeError("synthetic pipeline failure")

        server = CrowdWebServer(port=0, result_factory=factory).start()
        try:
            assert failed.wait(SETTLE_S)
            assert server.wait_ready(timeout=SETTLE_S) is False
            with RawConnection(server) as conn:
                conn.send(post("/api/refresh", b"x" * 4096))
                status, headers, body = conn.response()
                assert status == 500
                assert header(headers, "Connection") == "close"
                assert "synthetic pipeline failure" in json.loads(body)["error"]
                assert conn.at_eof()
        finally:
            server.stop()


class TestStop:
    def test_stop_closes_open_connections_and_their_threads(self, pipeline_result):
        before = set(threading.enumerate())
        server = CrowdWebServer(pipeline_result, port=0).start()
        conn = RawConnection(server)
        try:
            conn.send(get("/api/stats"))
            assert conn.response()[0] == 200
            server.stop()
            assert conn.at_eof()
        finally:
            conn.close()
            server.stop()
        assert settle(lambda: [t for t in threading.enumerate()
                               if t not in before and t.is_alive()]) == []

    def test_stop_without_start_returns(self, pipeline_result):
        server = CrowdWebServer(pipeline_result, port=0)

        def blocked(signum, frame):
            raise TimeoutError("stop() blocked on a server that never served")

        previous = signal.signal(signal.SIGALRM, blocked)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            server.stop()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def schedules():
    """perfbench's request-mix module, which defines the hot key set."""
    perfbench = str(Path(__file__).resolve().parents[2] / "perfbench")
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(perfbench)
        module = importlib.import_module("schedules")
    for name in ("schedules", "client"):  # perfbench's top-level module names
        sys.modules.pop(name, None)
    return module


class TestWireParity:
    """What the socket carries is ``CrowdWebApp.handle``'s answer, framed."""

    def test_hot_key_set_matches_the_app(self, live, schedules):
        server, _ = live
        app = server.app
        n_windows = len(app.api.crowd_summary()["windows"])
        user_ids = [row["user_id"] for row in
                    sorted(app.api.users()["users"], key=lambda row: row["user_id"])]
        keys = schedules.hot_keys(n_windows, user_ids)
        assert len(keys) > 100
        with RawConnection(server) as conn:
            for path in keys:
                etag = header(app.handle("GET", path)[1], "ETag")
                for extra in ((), ("Accept-Encoding: gzip",), (f"If-None-Match: {etag}",),
                              ("Accept-Encoding: gzip", f"If-None-Match: {etag}")):
                    conn.send(get(path, *extra))
                    status, wire_headers, body = conn.response()
                    request_headers = dict(line.split(": ", 1) for line in extra)
                    expected_status, expected_headers, expected_body = app.handle(
                        "GET", path, request_headers)
                    if expected_status != 304:
                        expected_headers = expected_headers + [
                            ("Content-Length", str(len(expected_body)))]
                    assert status == expected_status, path
                    assert [h for h in wire_headers if h[0] not in ("Date", "Server")] \
                        == expected_headers, path
                    assert body == expected_body, path
