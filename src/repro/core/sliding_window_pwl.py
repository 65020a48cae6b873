"""Sliding-window piecewise-linear MIN-INCREMENT (extension).

The paper stops at serial sliding-window histograms (Section 4.1), but its
two ingredients compose: the windowed GREEDY-INSERT with expiry and trim
works verbatim with PWL buckets, because

* closed PWL buckets are stored as fitted segments (Theorem 4's trick), so
  *expiring* or *trimming* a whole bucket is the same O(1) deque pop as in
  the serial case -- no hull surgery is ever needed at the old end;
* the open bucket only ever grows at the new end, exactly what the
  streaming hull supports.

The guarantee composes the same way as Theorem 5: at most ``B + 1``
buckets covering the window with error within ``(1 + eps)`` of the
window's optimal ``B``-bucket PWL error (up to the ladder's base
granularity -- PWL optima are real-valued; see DESIGN.md item 5).
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import Deque, Iterable, Optional

import numpy as np

from repro.core.error_ladder import ErrorLadder
from repro.core.histogram import Histogram, Segment
from repro.core.interface import DEFAULT_HULL_EPSILON
from repro.core.pwl_bucket import ClosedPwlBucket, PwlBucket
from repro.exceptions import (
    DomainError,
    EmptySummaryError,
    InvalidParameterError,
)
from repro.memory.model import DEFAULT_MODEL, MemoryModel
from repro.observability.hooks import SummaryMetrics, resolve_metrics


class _WindowedPwlGreedySummary:
    """Windowed PWL GREEDY-INSERT with the Section 4.1 expiry/trim policy."""

    __slots__ = ("target_error", "hull_epsilon", "closed", "open")

    def __init__(self, target_error: float, hull_epsilon: Optional[float]):
        self.target_error = target_error
        self.hull_epsilon = hull_epsilon
        self.closed: Deque[ClosedPwlBucket] = deque()
        self.open: Optional[PwlBucket] = None

    def insert(self, index: int, value) -> None:
        if self.open is None:
            self.open = PwlBucket(index, value, hull_epsilon=self.hull_epsilon)
        elif not self.open.try_add(value, self.target_error):
            self.closed.append(ClosedPwlBucket.from_bucket(self.open))
            self.open = PwlBucket(index, value, hull_epsilon=self.hull_epsilon)

    def expire(self, window_start: int) -> int:
        dropped = 0
        while self.closed and self.closed[0].end < window_start:
            self.closed.popleft()
            dropped += 1
        return dropped

    def trim_to(self, max_buckets: int) -> int:
        dropped = 0
        while self.bucket_count > max_buckets and self.closed:
            self.closed.popleft()
            dropped += 1
        return dropped

    @property
    def bucket_count(self) -> int:
        return len(self.closed) + (1 if self.open is not None else 0)

    def oldest_index(self) -> Optional[int]:
        if self.closed:
            return self.closed[0].beg
        if self.open is not None:
            return self.open.beg
        return None

    def segments_clipped(self, window_start: int) -> tuple[list[Segment], float]:
        """Window-clipped segments plus the worst bucket error."""
        segments: list[Segment] = []
        worst = 0.0
        for bucket in self.closed:
            seg = bucket.segment()
            if seg.beg < window_start:
                seg = Segment(
                    window_start,
                    seg.end,
                    seg.value_at(window_start),
                    seg.right,
                )
            segments.append(seg)
            if bucket.error > worst:
                worst = bucket.error
        if self.open is not None:
            seg = self.open.segment()
            if seg.beg < window_start:
                seg = Segment(
                    window_start, seg.end, seg.value_at(window_start), seg.right
                )
            segments.append(seg)
            if self.open.error > worst:
                worst = self.open.error
        return segments, worst


class SlidingWindowPwlMinIncrement:
    """(1 + eps, 1 + 1/B) piecewise-linear histogram over a sliding window.

    Parameters mirror :class:`~repro.core.sliding_window.SlidingWindowMinIncrement`
    with the PWL-specific ``hull_epsilon`` of the open buckets (unified
    default :data:`~repro.core.interface.DEFAULT_HULL_EPSILON`) and the
    opt-in ``metrics`` instrumentation hook.
    """

    def __init__(
        self,
        buckets: int,
        epsilon: float,
        universe: int,
        window: int,
        *,
        hull_epsilon: Optional[float] = DEFAULT_HULL_EPSILON,
        include_zero_level: bool = True,
        memory_model: MemoryModel = DEFAULT_MODEL,
        metrics=None,
    ):
        if buckets < 1:
            raise InvalidParameterError(f"buckets must be >= 1, got {buckets}")
        if window < 1:
            raise InvalidParameterError(f"window must be >= 1, got {window}")
        self.target_buckets = buckets
        self.window = window
        self.universe = universe
        self.epsilon = epsilon
        self.hull_epsilon = hull_epsilon
        self.ladder = ErrorLadder(
            epsilon, universe, include_zero_level=include_zero_level
        )
        self._model = memory_model
        self._summaries = [
            _WindowedPwlGreedySummary(level, hull_epsilon) for level in self.ladder
        ]
        self._n = 0
        self._metrics = resolve_metrics(metrics)
        if self._metrics is not None:
            self._metrics.bind_gauges(self)

    # -- ingestion ---------------------------------------------------------

    def insert(self, value) -> None:
        """Process the next stream value."""
        if self._metrics is None:
            self._ingest(value)
            return
        self._ingest_observed((value,))

    def extend(self, values: Iterable) -> None:
        """Insert every value of an iterable, in order.

        The same per-item loop as :meth:`insert` (see
        :meth:`PwlMinIncrementHistogram.extend`); with instrumentation on,
        the batch emits one ``on_insert`` event with the item count.
        """
        if isinstance(values, np.ndarray):
            values = values.tolist()
        if self._metrics is None:
            ingest = self._ingest
            for value in values:
                ingest(value)
            return
        self._ingest_observed(values)

    def _ingest(self, value) -> int:
        """Feed one value to every level; returns the buckets evicted."""
        if not 0 <= value < self.universe:
            raise DomainError(
                f"value {value!r} outside universe [0, {self.universe})"
            )
        index = self._n
        self._n += 1
        window_start = self.window_start
        max_buckets = self.target_buckets + 1
        evicted = 0
        for summary in self._summaries:
            summary.insert(index, value)
            evicted += summary.expire(window_start)
            evicted += summary.trim_to(max_buckets)
        return evicted

    def _ingest_observed(self, values) -> None:
        """Instrumented ingest of a batch: one event set for all of it."""
        start = perf_counter()
        n = evicted = 0
        try:
            for value in values:
                evicted += self._ingest(value)
                n += 1
        finally:
            if n:
                if evicted:
                    self._metrics.on_evict(evicted)
                self._metrics.on_insert(n, latency=perf_counter() - start)

    # -- queries -------------------------------------------------------------

    @property
    def items_seen(self) -> int:
        """Number of stream values processed so far."""
        return self._n

    @property
    def metrics(self) -> Optional[SummaryMetrics]:
        """Instrumentation facade, or ``None`` when not instrumented."""
        return self._metrics

    @property
    def window_start(self) -> int:
        """First stream index inside the current window."""
        return max(0, self._n - self.window)

    def best_summary(self) -> _WindowedPwlGreedySummary:
        """Smallest-error summary that fully covers the current window."""
        if self._n == 0:
            raise EmptySummaryError("no values inserted yet")
        window_start = self.window_start
        for summary in self._summaries:
            oldest = summary.oldest_index()
            if oldest is not None and oldest <= window_start:
                return summary
        raise EmptySummaryError(
            "no summary covers the current window"
        )  # pragma: no cover

    def histogram(self) -> Histogram:
        """PWL histogram of the last ``w`` values, clipped to the window."""
        summary = self.best_summary()
        segments, worst = summary.segments_clipped(self.window_start)
        return Histogram(segments, worst)

    @property
    def error(self) -> float:
        """Error of the current window's answer histogram."""
        return self.histogram().error

    def memory_bytes(self) -> int:
        """Accounted memory: per-level buckets, open hulls, ladder."""
        total = self._model.ladder_entries(len(self._summaries))
        for summary in self._summaries:
            total += self._model.buckets(len(summary.closed))
            if summary.open is not None:
                total += summary.open.memory_bytes(self._model)
        return total
