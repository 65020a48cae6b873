"""Reference oracles for the sliding windows: one level class per bucket kind.

These are the plain formulations of Section 4.1 (Theorem 5) that the
shared ladder of :mod:`repro.core.sliding_window` must match bit for bit:

* :class:`SlidingWindowReference` -- GREEDY-INSERT per ladder level with
  its own windowed level class; every item is inserted, then each level
  *expires* the buckets that end before the window and *trims* its oldest
  buckets down to ``B + 1``.  ``extend`` ingests a chunk per level with
  :func:`greedy_chunk`, then expires and trims once per chunk;
* :class:`SlidingWindowPwlReference` -- the same per-item loop over PWL
  buckets (closed ones stored as fitted segments), ``extend`` included.

Neither is instrumented: the oracles fix the summary state, not its
events.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Optional

import numpy as np

from repro.core.batch import MAX_WINDOW, as_batch_array, greedy_chunk
from repro.core.bucket import Bucket
from repro.core.error_ladder import ErrorLadder
from repro.core.histogram import Histogram, Segment
from repro.core.pwl_bucket import ClosedPwlBucket, PwlBucket
from repro.exceptions import DomainError, EmptySummaryError, InvalidParameterError
from repro.memory.model import DEFAULT_MODEL, MemoryModel


class WindowedGreedyLevel:
    """GREEDY-INSERT with the expiry and trim policies of Section 4.1."""

    __slots__ = ("target_error", "closed", "open")

    def __init__(self, target_error: float):
        self.target_error = target_error
        self.closed: Deque[Bucket] = deque()
        self.open: Optional[Bucket] = None

    def insert(self, index: int, value) -> None:
        if self.open is None:
            self.open = Bucket.singleton(index, value)
        elif self.open.would_extend_error(value) <= self.target_error:
            self.open.extend(value)
        else:
            self.closed.append(self.open)
            self.open = Bucket.singleton(index, value)

    def expire(self, window_start: int) -> int:
        """Drop buckets entirely outside the window; returns how many."""
        dropped = 0
        while self.closed and self.closed[0].end < window_start:
            self.closed.popleft()
            dropped += 1
        return dropped

    def trim_to(self, max_buckets: int) -> int:
        """Drop oldest buckets until at most ``max_buckets`` remain."""
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

    def buckets_snapshot(self) -> list[Bucket]:
        out = [Bucket(b.beg, b.end, b.min, b.max) for b in self.closed]
        if self.open is not None:
            b = self.open
            out.append(Bucket(b.beg, b.end, b.min, b.max))
        return out


class WindowedPwlGreedyLevel(WindowedGreedyLevel):
    """Windowed PWL GREEDY-INSERT with the Section 4.1 expiry/trim policy."""

    __slots__ = ("hull_epsilon",)

    def __init__(self, target_error: float, hull_epsilon: Optional[float]):
        super().__init__(target_error)
        self.hull_epsilon = hull_epsilon

    def insert(self, index: int, value) -> None:
        if self.open is None:
            self.open = PwlBucket(index, value, hull_epsilon=self.hull_epsilon)
        elif not self.open.try_add(value, self.target_error):
            self.closed.append(ClosedPwlBucket.from_bucket(self.open))
            self.open = PwlBucket(index, value, hull_epsilon=self.hull_epsilon)

    def segments_clipped(self, window_start: int) -> tuple[list[Segment], float]:
        """Window-clipped segments plus the worst bucket error."""
        segments: list[Segment] = []
        worst = 0.0
        for bucket in list(self.closed) + (
            [self.open] if self.open is not None else []
        ):
            seg = bucket.segment()
            if seg.beg < window_start:
                seg = Segment(
                    window_start, seg.end, seg.value_at(window_start), seg.right
                )
            segments.append(seg)
            if bucket.error > worst:
                worst = bucket.error
        return segments, worst


class SlidingWindowReference:
    """(1 + eps, 1 + 1/B)-approximate histogram over a sliding window."""

    def __init__(
        self,
        buckets: int,
        epsilon: float,
        universe: int,
        window: int,
        *,
        include_zero_level: bool = True,
        memory_model: MemoryModel = DEFAULT_MODEL,
    ):
        if buckets < 1:
            raise InvalidParameterError(f"buckets must be >= 1, got {buckets}")
        if window < 1:
            raise InvalidParameterError(f"window must be >= 1, got {window}")
        self.target_buckets = buckets
        self.window = window
        self.universe = universe
        self.epsilon = epsilon
        self.ladder = ErrorLadder(
            epsilon, universe, include_zero_level=include_zero_level
        )
        self._model = memory_model
        self._summaries = [self._level(level) for level in self.ladder]
        self._n = 0

    def _level(self, target_error: float) -> WindowedGreedyLevel:
        return WindowedGreedyLevel(target_error)

    def insert(self, value) -> tuple[int, int]:
        """Ingest one value; returns the buckets (expired, trimmed)."""
        if not 0 <= value < self.universe:
            raise DomainError(
                f"value {value!r} outside universe [0, {self.universe})"
            )
        index = self._n
        self._n += 1
        window_start = self.window_start
        expired = trimmed = 0
        for summary in self._summaries:
            summary.insert(index, value)
            expired += summary.expire(window_start)
            trimmed += summary.trim_to(self.target_buckets + 1)
        return expired, trimmed

    def extend(self, values: Iterable) -> None:
        """Chunked GREEDY-INSERT per level, expiry and trim per chunk."""
        arr = as_batch_array(values)
        if arr is None:
            for value in values:
                self.insert(value)
            return
        n = len(arr)
        if n == 0:
            return
        bad = (arr < 0) | (arr >= self.universe)
        if bad.any():
            offender = int(np.argmax(bad))
            if offender:
                self.extend(values[:offender])
            v = arr[offender].item()
            raise DomainError(
                f"value {v!r} outside universe [0, {self.universe})"
            )
        for off in range(0, n, MAX_WINDOW):
            chunk = arr[off : off + MAX_WINDOW]
            base = self._n
            self._n += len(chunk)
            window_start = self.window_start
            for summary in self._summaries:
                summary.open, _ = greedy_chunk(
                    chunk,
                    base,
                    summary.open,
                    summary.closed.append,
                    summary.target_error,
                )
                summary.expire(window_start)
                summary.trim_to(self.target_buckets + 1)

    @property
    def items_seen(self) -> int:
        return self._n

    @property
    def window_start(self) -> int:
        return max(0, self._n - self.window)

    def best_summary(self) -> WindowedGreedyLevel:
        """Smallest-error level that fully covers the current window."""
        if self._n == 0:
            raise EmptySummaryError("no values inserted yet")
        window_start = self.window_start
        for summary in self._summaries:
            oldest = summary.oldest_index()
            if oldest is not None and oldest <= window_start:
                return summary
        raise EmptySummaryError("no summary covers the current window")

    def histogram(self) -> Histogram:
        summary = self.best_summary()
        window_start = self.window_start
        segments = []
        worst = 0.0
        for bucket in summary.buckets_snapshot():
            beg = max(bucket.beg, window_start)
            segments.append(
                Segment(beg, bucket.end, bucket.representative, bucket.representative)
            )
            if bucket.error > worst:
                worst = bucket.error
        return Histogram(segments, worst)

    @property
    def error(self) -> float:
        return self.histogram().error

    def memory_bytes(self) -> int:
        total = 0
        for summary in self._summaries:
            total += self._model.buckets(len(summary.closed))
            if summary.open is not None:
                total += self._model.open_buckets(1)
        total += self._model.ladder_entries(len(self._summaries))
        return total


class SlidingWindowPwlReference(SlidingWindowReference):
    """(1 + eps, 1 + 1/B) piecewise-linear histogram over a sliding window."""

    def __init__(self, *args, hull_epsilon=None, **kwargs):
        self.hull_epsilon = hull_epsilon
        super().__init__(*args, **kwargs)

    def _level(self, target_error: float) -> WindowedPwlGreedyLevel:
        return WindowedPwlGreedyLevel(target_error, self.hull_epsilon)

    def extend(self, values: Iterable) -> None:
        """The same per-item loop as :meth:`insert`."""
        if isinstance(values, np.ndarray):
            values = values.tolist()
        for value in values:
            self.insert(value)

    def histogram(self) -> Histogram:
        summary = self.best_summary()
        segments, worst = summary.segments_clipped(self.window_start)
        return Histogram(segments, worst)

    def memory_bytes(self) -> int:
        total = self._model.ladder_entries(len(self._summaries))
        for summary in self._summaries:
            total += self._model.buckets(len(summary.closed))
            if summary.open is not None:
                total += summary.open.memory_bytes(self._model)
        return total
