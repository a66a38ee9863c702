"""The tracing side of the observability layer: nested wall/CPU spans.

A :class:`Span` is one timed region — name, attributes, wall-clock and CPU
duration, children.  A :class:`Tracer` hands out spans as context managers,
nests them via a thread-local stack (so the threaded web server traces each
request independently), and keeps **completed root spans** in a bounded ring
buffer: tracing a long-lived server cannot grow memory without bound.

Two explicit bounds keep traces small:

* at most ``max_roots`` completed root spans are retained (oldest dropped);
* each span keeps at most ``max_children`` children; extra completions are
  counted in ``n_dropped_children`` instead of being attached.

Spans export to plain dicts (``to_dict`` / ``Tracer.export``) — the format
the observability dump holds and ``python -m repro.obs`` pretty-prints.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional

__all__ = ["Span", "Tracer"]

#: Default retention bounds (see the module docstring).
DEFAULT_MAX_ROOTS = 64
DEFAULT_MAX_CHILDREN = 128


class Span:
    """One timed region of the program, possibly with nested children."""

    __slots__ = (
        "name",
        "attrs",
        "children",
        "status",
        "n_dropped_children",
        "started_unix_s",
        "wall_s",
        "cpu_s",
        "_wall0",
        "_cpu0",
    )

    def __init__(self, name: str, attrs: Optional[Dict] = None) -> None:
        self.name = name
        self.attrs: Dict = dict(attrs) if attrs else {}
        self.children: List[Span] = []
        self.status = "ok"
        self.n_dropped_children = 0
        self.started_unix_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def set(self, key: str, value) -> None:
        """Attach (or overwrite) one attribute on the span."""
        self.attrs[key] = value

    def _start(self) -> None:
        self.started_unix_s = time.time()
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()

    def _finish(self, status: str) -> None:
        self.wall_s = time.perf_counter() - self._wall0
        self.cpu_s = time.process_time() - self._cpu0
        self.status = status

    def to_dict(self) -> Dict:
        payload: Dict = {
            "name": self.name,
            "wall_s": round(self.wall_s, 6),
            "cpu_s": round(self.cpu_s, 6),
            "started_unix_s": round(self.started_unix_s, 3),
            "status": self.status,
        }
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        if self.n_dropped_children:
            payload["n_dropped_children"] = self.n_dropped_children
        return payload


class _ActiveSpan:
    """Context manager driving one span through the tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._span._start()
        self._tracer._stack().append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        status = "ok" if exc_type is None else f"error:{exc_type.__name__}"
        self._span._finish(status)
        self._tracer._complete(self._span)
        return False  # never suppress the exception


class Tracer:
    """Hands out nested spans and retains completed roots in a ring buffer."""

    def __init__(
        self,
        max_roots: int = DEFAULT_MAX_ROOTS,
        max_children: int = DEFAULT_MAX_CHILDREN,
    ) -> None:
        if max_roots < 1 or max_children < 0:
            raise ValueError("max_roots must be >= 1 and max_children >= 0")
        self.max_children = max_children
        self._roots: Deque[Span] = deque(maxlen=max_roots)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs) -> _ActiveSpan:
        """A context manager timing one region; yields the :class:`Span`."""
        return _ActiveSpan(self, Span(name, attrs))

    def _complete(self, span: Span) -> None:
        stack = self._stack()
        # The finished span is the top of this thread's stack by
        # construction (context managers unwind LIFO).
        if stack and stack[-1] is span:
            stack.pop()
        if stack:
            parent = stack[-1]
            if len(parent.children) < self.max_children:
                parent.children.append(span)
            else:
                parent.n_dropped_children += 1
        else:
            with self._lock:
                self._roots.append(span)

    def roots(self) -> List[Span]:
        """Completed root spans, oldest first (a snapshot copy)."""
        with self._lock:
            return list(self._roots)

    def last_root(self) -> Optional[Span]:  # crowdlint: disable=CW604 -- obs read surface
        """The most recently completed root span, if any."""
        with self._lock:
            return self._roots[-1] if self._roots else None

    def export(self) -> List[Dict]:
        """Every retained root span as a plain dict tree."""
        return [span.to_dict() for span in self.roots()]

    def reset(self) -> None:  # crowdlint: disable=CW604 -- obs read surface
        """Drop all retained root spans (in-flight spans are unaffected)."""
        with self._lock:
            self._roots.clear()
