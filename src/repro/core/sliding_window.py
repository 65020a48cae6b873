"""Sliding-window MIN-INCREMENT (Section 4.1, Theorem 5).

The sliding-window model asks for a histogram of only the most recent ``w``
stream values.  Lemma 3 shows no sublinear-memory algorithm can match the
optimal B-bucket error exactly, so the paper settles for
``(1 + eps, 1 + 1/B)``: at most ``B + 1`` buckets with error within
``(1 + eps)`` of the optimal B-bucket error for the current window.

Mechanics, per target error ``e_i`` of the ladder:

* GREEDY-INSERT as usual at the right end of the window;
* *expire* any bucket that lies entirely outside the window;
* if the summary exceeds ``B + 1`` buckets, *trim* the oldest bucket even
  though it is still inside the window (Lemma 4 justifies this: the window's
  optimal B-bucket error must already exceed ``e_i``, so the summary only
  needs to stay useful for future windows).

A summary whose oldest bucket no longer reaches back to the window start is
*incomplete* (it was trimmed recently) and cannot answer for the current
window; at query time we use the smallest-error summary that covers the
whole window with at most ``B + 1`` buckets.

The levels are the plain GREEDY-INSERT summaries of the full-stream
ladders (:class:`GreedyInsertSummary` here,
:class:`~repro.core.pwl_min_increment.PwlGreedyInsertSummary` for the PWL
window of :mod:`repro.core.sliding_window_pwl`); :class:`_WindowLadder`
adds the window to them.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, Optional

import numpy as np

from repro.core.batch import MAX_WINDOW, as_batch_array
from repro.core.error_ladder import ErrorLadder
from repro.core.greedy_insert import GreedyInsertSummary
from repro.core.histogram import Histogram, Segment
from repro.exceptions import (
    DomainError,
    EmptySummaryError,
    InvalidParameterError,
)
from repro.memory.model import DEFAULT_MODEL, MemoryModel
from repro.observability.hooks import SummaryMetrics, resolve_metrics


def _evict(level, window_start: int, keep: int) -> int:
    """Section 4.1's expiry and trim on one level, as one front deletion.

    Drops the closed buckets that end before ``window_start`` and, oldest
    first, as many more as leave at most ``keep`` closed (``B`` closed plus
    the open one is the ``B + 1`` cap).  Both policies drop from the old
    end, so their union is a prefix.  Returns the number dropped.
    """
    closed = level.closed
    k = len(closed) - keep
    if k < 0:
        k = 0
    while k < len(closed) and closed[k].end < window_start:
        k += 1
    if k:
        del closed[:k]
    return k


class _WindowLadder:
    """One GREEDY-INSERT level per ladder error, kept to the last ``w`` items.

    Subclasses choose the level class (:meth:`_level`) and how a level
    ingests a checked chunk (:meth:`_absorb`); ingest, expiry and trim,
    the answer level, window clipping and memory accounting live here.
    """

    def __init__(
        self,
        buckets: int,
        epsilon: float,
        universe: int,
        window: int,
        *,
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
        self.ladder = ErrorLadder(
            epsilon, universe, include_zero_level=include_zero_level
        )
        self._model = memory_model
        self._summaries = [self._level(level) for level in self.ladder]
        self._n = 0
        self._metrics = resolve_metrics(metrics)
        if self._metrics is not None:
            self._metrics.bind_gauges(self)

    def _level(self, target_error: float):
        """A fresh level for one ladder error."""
        raise NotImplementedError

    def _absorb(self, level, chunk: np.ndarray, items) -> None:
        """GREEDY-INSERT one domain-checked chunk into ``level``.

        ``chunk`` is the chunk as an array, ``items`` as the caller passed
        it (a list or tuple slice, or the same array).
        """
        raise NotImplementedError

    # -- ingestion -----------------------------------------------------------

    def insert(self, value) -> None:
        """Process the next stream value."""
        if not 0 <= value < self.universe:
            raise DomainError(
                f"value {value!r} outside universe [0, {self.universe})"
            )
        m = self._metrics
        start = perf_counter() if m is not None else 0.0
        self._n += 1
        window_start = self.window_start
        keep = self.target_buckets
        evicted = 0
        for level in self._summaries:
            level.insert(value)
            evicted += _evict(level, window_start, keep)
        if m is not None:
            if evicted:
                m.on_evict(evicted)
            m.on_insert(latency=perf_counter() - start)

    def extend(self, values: Iterable) -> None:
        """Insert every value of an iterable, in order.

        Lists, tuples and numeric ndarrays are ingested a chunk at a time:
        each level takes the whole chunk, then expiry and trim run once
        against the chunk's final window start.  Greedy boundaries depend
        only on the open bucket and both policies drop from the old end,
        so the surviving suffix matches the per-item schedule exactly.  A
        value outside the universe raises :class:`DomainError` after the
        values before it are ingested.  With instrumentation on, a batch
        emits one ``on_insert`` event with the item count and aggregated
        eviction counts.
        """
        arr = as_batch_array(values)
        if arr is None:
            for value in values:
                self.insert(value)
            return
        n = len(arr)
        if n == 0:
            return
        # A universe that float64 rounds down flags in-universe floats
        # too; the scalar test decides which value is the offender.
        for offender in np.flatnonzero((arr < 0) | (arr >= self.universe)).tolist():
            v = arr[offender].item()
            if not 0 <= v < self.universe:
                if offender:
                    self.extend(values[:offender])
                raise DomainError(
                    f"value {v!r} outside universe [0, {self.universe})"
                )
        observe = self._metrics is not None
        start = perf_counter() if observe else 0.0
        keep = self.target_buckets
        evicted = 0
        for off in range(0, n, MAX_WINDOW):
            chunk = arr[off : off + MAX_WINDOW]
            items = values[off : off + MAX_WINDOW]
            self._n += len(chunk)
            window_start = self.window_start
            for level in self._summaries:
                self._absorb(level, chunk, items)
                evicted += _evict(level, window_start, keep)
        if observe:
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

    def best_summary(self):
        """Smallest-error level that fully covers the current window."""
        if self._n == 0:
            raise EmptySummaryError("no values inserted yet")
        window_start = self.window_start
        for level in self._summaries:
            oldest = level.closed[0] if level.closed else level.open
            if oldest is not None and oldest.beg <= window_start:
                return level
        # The coarsest level is never trimmed (it always needs one bucket),
        # so this is unreachable; guard for safety.
        raise EmptySummaryError(
            "no summary covers the current window"
        )  # pragma: no cover

    def histogram(self) -> Histogram:
        """Histogram of the last ``w`` values, clipped to the window.

        Only the first bucket can have opened before the window started;
        its segment is cut at the window start, while its error (a bound
        over a superset of the window portion) still counts, preserving
        the ``(1 + eps)`` guarantee.
        """
        answer = self.best_summary().histogram()
        window_start = self.window_start
        segments = list(answer.segments)
        first = segments[0]
        if first.beg < window_start:
            segments[0] = Segment(
                window_start, first.end, first.value_at(window_start), first.right
            )
        return Histogram(segments, answer.error)

    @property
    def error(self) -> float:
        """Error of the current window's answer histogram."""
        return self.histogram().error

    def memory_bytes(self) -> int:
        """Accounted memory: every level's buckets plus ladder entries."""
        model = self._model
        total = model.ladder_entries(len(self._summaries))
        for level in self._summaries:
            total += level.memory_bytes(model)
        return total


class SlidingWindowMinIncrement(_WindowLadder):
    """(1 + eps, 1 + 1/B)-approximate histogram over a sliding window.

    Parameters
    ----------
    buckets:
        Target bucket count ``B``; answers use at most ``B + 1`` buckets.
    epsilon:
        Approximation parameter in (0, 1).
    universe:
        Size ``U`` of the integer value domain ``[0, U)``.
    window:
        Window length ``w >= 1``: queries describe the last ``w`` values.
    memory_model:
        Cost model used by :meth:`memory_bytes`.
    metrics:
        Opt-in instrumentation: ``True`` for a private registry, or a
        shared :class:`~repro.observability.MetricsRegistry`; default off
        (see ``docs/OBSERVABILITY.md``).  Expired and trimmed buckets are
        counted as evictions.
    """

    def _level(self, target_error: float) -> GreedyInsertSummary:
        return GreedyInsertSummary(target_error)

    def _absorb(self, level, chunk, items) -> None:
        level.extend(chunk)
