"""The metrics side of the observability layer: counters, gauges, histograms.

A :class:`MetricsRegistry` is a thread-safe, dependency-free metric store.
Metric names follow the repo-wide convention ``repro_<layer>_<name>_<unit>``
(``repro_exec_task_latency_s``, ``repro_mining_prune_upper_total``); the
optional ``label`` gives one dimension of cardinality (an endpoint, a task
name) without a full label-set model.

Histograms use **fixed buckets** declared at observation time: ``counts[i]``
is the number of observations that fell into bin ``i`` (bounded above by
``buckets[i]``), and the final bin is the overflow.  Bin counts are plain
(not cumulative), which keeps the JSON payload directly plottable.

The registry is process-global by default (see :mod:`repro.obs.runtime`) but
every consumer takes it through the active :class:`~repro.obs.runtime.Observer`,
so tests can inject a fresh — or sentinel — instance.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_S",
    "DEPTH_BUCKETS",
    "MetricsRegistry",
    "NullRegistry",
]

#: Default histogram buckets for latency metrics, in seconds (upper bounds;
#: observations above the last bound land in the overflow bin).
DEFAULT_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Buckets for small structural quantities (recursion depth, pattern length).
DEPTH_BUCKETS: Tuple[float, ...] = (0, 1, 2, 3, 4, 6, 8, 12, 16)


class _Histogram:
    """One fixed-bucket histogram series (a single (name, label) pair)."""

    __slots__ = ("buckets", "counts", "count", "total", "min", "max")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +1 = overflow bin
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def to_dict(self) -> Dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": round(self.total, 9),
            "min": round(self.min, 9) if self.count else None,
            "max": round(self.max, 9) if self.count else None,
        }


class MetricsRegistry:
    """Thread-safe store of counters, gauges, and fixed-bucket histograms.

    All mutators take a metric ``name`` plus an optional ``label`` (one
    cardinality dimension; ``""`` means unlabeled).  ``snapshot()`` returns
    the whole registry as plain JSON-ready dicts — the payload served by
    ``GET /metrics``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Dict[str, float]] = {}
        self._gauges: Dict[str, Dict[str, float]] = {}
        self._histograms: Dict[str, Dict[str, _Histogram]] = {}

    # ------------------------------------------------------------ mutators

    def inc(self, name: str, value: float = 1, label: str = "") -> None:
        """Add ``value`` to the counter ``name`` (creating it at 0)."""
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[label] = series.get(label, 0) + value

    def set_gauge(self, name: str, value: float, label: str = "") -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges.setdefault(name, {})[label] = value

    def observe(
        self,
        name: str,
        value: float,
        label: str = "",
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S,
    ) -> None:
        """Record ``value`` into the histogram ``name``.

        ``buckets`` fixes the bin bounds on first observation; later
        observations of the same series reuse the established bounds.
        """
        with self._lock:
            series = self._histograms.setdefault(name, {})
            histogram = series.get(label)
            if histogram is None:
                histogram = series[label] = _Histogram(tuple(buckets))
            histogram.observe(value)

    def reset(self) -> None:  # crowdlint: disable=CW604 -- obs read surface
        """Drop every recorded metric (tests and long-lived servers)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # ------------------------------------------------------------- readers

    def counter(self, name: str, label: str = "") -> float:  # crowdlint: disable=CW604 -- obs read surface
        """Current value of a counter (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, {}).get(label, 0)

    def gauge(self, name: str, label: str = "") -> float:  # crowdlint: disable=CW604 -- obs read surface
        """Current value of a gauge (0 if never set)."""
        with self._lock:
            return self._gauges.get(name, {}).get(label, 0)

    def histogram(self, name: str, label: str = "") -> Dict:
        """One histogram series as a dict (empty dict if never observed)."""
        with self._lock:
            series = self._histograms.get(name, {}).get(label)
            return series.to_dict() if series is not None else {}

    def labels_of(self, name: str) -> List[str]:  # crowdlint: disable=CW604 -- obs read surface
        """Every label recorded under a histogram name, sorted."""
        with self._lock:
            return sorted(self._histograms.get(name, {}))

    def snapshot(self) -> Dict:
        """The full registry as JSON-ready nested dicts.

        Schema: ``{"counters": {name: {label: value}}, "gauges": {...},
        "histograms": {name: {label: {"buckets", "counts", "count", "sum",
        "min", "max"}}}}`` — the unlabeled series uses the ``""`` key.
        """
        with self._lock:
            return {
                "counters": {
                    name: dict(series) for name, series in self._counters.items()
                },
                "gauges": {
                    name: dict(series) for name, series in self._gauges.items()
                },
                "histograms": {
                    name: {
                        label: histogram.to_dict()
                        for label, histogram in series.items()
                    }
                    for name, series in self._histograms.items()
                },
            }


class NullRegistry(MetricsRegistry):
    """A registry that records nothing — the disabled-path backend.

    Every mutator is a no-op, so instrumented code can call it freely with
    zero allocation; ``snapshot()`` is always empty.
    """

    def inc(self, name: str, value: float = 1, label: str = "") -> None:
        pass

    def set_gauge(self, name: str, value: float, label: str = "") -> None:
        pass

    def observe(
        self,
        name: str,
        value: float,
        label: str = "",
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S,
    ) -> None:
        pass
