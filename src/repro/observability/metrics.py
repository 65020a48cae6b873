"""Zero-dependency runtime metrics: counters, gauges, latency recorders.

Every summary in this library can be constructed with ``metrics=True`` (or
a shared :class:`MetricsRegistry`) to expose its internal event rates --
inserts, merges, ladder promotions, batch flushes, window evictions -- and
an insert-latency profile.  The registry is deliberately tiny and has no
third-party dependencies, because it ships inside the library and runs in
the ingest hot path of production deployments.

Design notes
------------

* **Disabled is free.**  Instrumentation is opt-in; a summary built
  without ``metrics`` stores ``None`` and its hot path performs a single
  ``is None`` test (guarded by ``benchmarks/bench_observability_overhead``).
* **Latency is dogfooded.**  :class:`LatencyRecorder` summarizes the
  per-insert latency series with the repo's own
  :class:`~repro.core.min_merge.MinMergeHistogram` -- the L-infinity
  streaming histogram this library exists to provide -- so the full
  latency timeline is available in O(B) space with a guaranteed maximum
  error, and approximate quantiles fall out of the segment weights.
* **Snapshots are plain data.**  :meth:`MetricsRegistry.snapshot` returns
  nested dicts of numbers/lists only, safe for ``json.dumps`` (also
  available as :meth:`MetricsRegistry.to_json`).
"""

from __future__ import annotations

import json
from typing import Callable, Optional

from repro.exceptions import InvalidParameterError

__all__ = [
    "Counter",
    "Gauge",
    "LatencyRecorder",
    "MetricsRegistry",
]


class Counter:
    """Monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def incr(self, n: int = 1) -> None:
        """Add ``n`` (>= 0) events."""
        self.value += n

    def reset(self) -> None:
        """Zero the count."""
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """Point-in-time value, either set explicitly or read from a source.

    A *sourced* gauge carries a zero-argument callable (for example
    ``summary.memory_bytes``) that is evaluated lazily at snapshot time, so
    keeping the gauge current costs nothing on the hot path.
    """

    __slots__ = ("name", "_value", "source")

    def __init__(self, name: str, source: Optional[Callable[[], float]] = None):
        self.name = name
        self._value: float = 0.0
        self.source = source

    def set(self, value: float) -> None:
        """Store an explicit value (ignored while a source is bound)."""
        self._value = value

    @property
    def value(self) -> float:
        """Current reading: the source's value, or the last ``set``."""
        if self.source is not None:
            return self.source()
        return self._value

    def reset(self) -> None:
        """Zero the stored value (a bound source is left in place)."""
        self._value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class LatencyRecorder:
    """Streaming profile of an operation-latency series.

    Tracks count / total / min / max exactly, and keeps a piecewise-constant
    approximation of the *latency timeline* (latency vs. operation index)
    in a :class:`~repro.core.min_merge.MinMergeHistogram` with ``buckets``
    working buckets -- O(B) space with a guaranteed maximum (L-infinity)
    error, reported in the snapshot as ``timeline_max_error_us``.

    Approximate quantiles are derived from the timeline segments: each
    segment covers ``end - beg + 1`` operations at its representative
    latency, and the weighted order statistics of those representatives are
    within the timeline's maximum error of the true quantiles.

    Latencies are recorded in **seconds** and reported in microseconds.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_timeline")

    def __init__(self, name: str, *, buckets: int = 16):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        # Imported lazily: repro.core imports this module at load time.
        from repro.core.min_merge import MinMergeHistogram

        # The recorder's own summary is never instrumented (that way lies
        # infinite regress).
        self._timeline = MinMergeHistogram(buckets=buckets)

    def record(self, seconds: float) -> None:
        """Record one operation latency (in seconds)."""
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds
        self._timeline.insert(seconds * 1e6)

    @property
    def mean(self) -> float:
        """Mean latency in seconds (0.0 before the first record)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def timeline_segments(self) -> list[tuple[int, int, float]]:
        """``(beg, end, representative_us)`` segments of the latency timeline."""
        if self.count == 0:
            return []
        return [
            (seg.beg, seg.end, seg.left)
            for seg in self._timeline.histogram().segments
        ]

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile latency in microseconds.

        Derived from the timeline segments' weighted representatives; the
        answer is within the timeline's maximum error of a true latency
        sample at that rank.
        """
        if not 0.0 <= q <= 1.0:
            raise InvalidParameterError(f"quantile must lie in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        weighted = sorted(
            (value, end - beg + 1)
            for beg, end, value in self.timeline_segments()
        )
        rank = q * self.count
        seen = 0
        for value, weight in weighted:
            seen += weight
            if seen >= rank:
                return value
        return weighted[-1][0]

    def reset(self) -> None:
        """Forget every recorded latency and start a fresh timeline."""
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        from repro.core.min_merge import MinMergeHistogram

        self._timeline = MinMergeHistogram(buckets=self._timeline.target_buckets)

    def snapshot(self) -> dict:
        """Plain-data summary of the recorded latencies (microseconds)."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "total_us": self.total * 1e6,
            "mean_us": self.mean * 1e6,
            "min_us": self.min * 1e6,
            "max_us": self.max * 1e6,
            "p50_us": self.quantile(0.50),
            "p90_us": self.quantile(0.90),
            "p99_us": self.quantile(0.99),
            "timeline": [list(seg) for seg in self.timeline_segments()],
            "timeline_max_error_us": self._timeline.error,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LatencyRecorder({self.name}, n={self.count})"


class MetricsRegistry:
    """Named collection of counters, gauges, and latency recorders.

    All accessors are create-or-get: asking for an existing name returns
    the existing instrument, so several summaries can share one registry
    and their events aggregate (the :class:`~repro.fleet.StreamFleet`
    pattern).  Names must be unique across instrument kinds.
    """

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._latencies: dict[str, LatencyRecorder] = {}

    # -- instrument accessors ---------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        existing = self._counters.get(name)
        if existing is None:
            self._check_free(name, self._counters)
            existing = self._counters[name] = Counter(name)
        return existing

    def gauge(
        self, name: str, *, source: Optional[Callable[[], float]] = None
    ) -> Gauge:
        """The gauge called ``name``, created on first use.

        Passing ``source`` (re)binds the gauge's lazy read callable --
        last binding wins, which lets a restored summary re-attach its
        gauges to the new object.
        """
        existing = self._gauges.get(name)
        if existing is None:
            self._check_free(name, self._gauges)
            existing = self._gauges[name] = Gauge(name, source)
        elif source is not None:
            existing.source = source
        return existing

    def latency(self, name: str, *, buckets: int = 16) -> LatencyRecorder:
        """The latency recorder called ``name``, created on first use."""
        existing = self._latencies.get(name)
        if existing is None:
            self._check_free(name, self._latencies)
            existing = self._latencies[name] = LatencyRecorder(
                name, buckets=buckets
            )
        return existing

    def _check_free(self, name: str, target: dict) -> None:
        for kind in (self._counters, self._gauges, self._latencies):
            if kind is not target and name in kind:
                raise InvalidParameterError(
                    f"metric name {name!r} already registered as a "
                    "different instrument kind"
                )

    # -- export -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data view of every instrument, JSON-safe."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "latencies": {
                name: r.snapshot()
                for name, r in sorted(self._latencies.items())
            },
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """``snapshot()`` as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def reset(self) -> None:
        """Zero every instrument (the instruments stay registered)."""
        for counter in self._counters.values():
            counter.reset()
        for gauge in self._gauges.values():
            gauge.reset()
        for recorder in self._latencies.values():
            recorder.reset()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._latencies)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, latencies={len(self._latencies)})"
        )
