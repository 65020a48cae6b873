"""PWL MIN-INCREMENT (Section 3.2, Theorem 4).

Same ladder-of-greedy-summaries skeleton as the serial MIN-INCREMENT, with
two PWL-specific twists straight from the paper:

* the *open* bucket of each summary maintains a convex hull (exact or
  size-capped) so arriving points can be tested against the target error --
  the error of a PWL bucket is monotone under point insertion (the hull
  only grows), so the greedy dual optimality argument of Lemma 2 carries
  over unchanged;
* a *closed* bucket immediately drops its hull and keeps only the fitted
  4-word segment ``(beg, end, left, right)``, which is what keeps the space
  at ``O(eps^-1 B log U)`` for the buckets plus one hull's worth of
  ``O(eps^{-3/2} log(1/eps) log U)`` across the ladder.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, Optional

import numpy as np

from repro.core.error_ladder import ErrorLadder
from repro.core.histogram import Histogram
from repro.core.interface import DEFAULT_HULL_EPSILON
from repro.core.pwl_bucket import ClosedPwlBucket, PwlBucket
from repro.exceptions import (
    DomainError,
    EmptySummaryError,
    InvalidParameterError,
)
from repro.memory.model import DEFAULT_MODEL, MemoryModel
from repro.observability.hooks import SummaryMetrics, resolve_metrics


class PwlGreedyInsertSummary:
    """Minimum-bucket PWL approximation for one target error."""

    __slots__ = ("target_error", "hull_epsilon", "closed", "open", "_next_index")

    def __init__(
        self,
        target_error: float,
        *,
        hull_epsilon: Optional[float] = DEFAULT_HULL_EPSILON,
        start_index: int = 0,
    ):
        if not target_error >= 0:
            raise InvalidParameterError(
                f"target_error must be >= 0, got {target_error}"
            )
        self.target_error = target_error
        self.hull_epsilon = hull_epsilon
        self.closed: list[ClosedPwlBucket] = []
        self.open: Optional[PwlBucket] = None
        self._next_index = start_index

    def insert(self, value, fresh: Optional[PwlBucket] = None) -> Optional[PwlBucket]:
        """GREEDY-INSERT one value; returns the bucket it opened, else None.

        :class:`PwlMinIncrementHistogram` lets its levels share open
        buckets while their contents agree, visiting them in increasing
        target order: ``fresh`` is a bucket a lower level just opened with
        this value at this index, adopted instead of a copy, and an open
        bucket whose ``end`` already is this index was extended by a
        lower-target level sharing it -- its error fits that target, so it
        fits this one too.
        """
        index = self._next_index
        self._next_index = index + 1
        open_ = self.open
        if open_ is not None:
            if open_.end == index or open_.try_add(value, self.target_error):
                return None
            self.closed.append(ClosedPwlBucket.from_bucket(open_))
        if fresh is None or fresh.beg != index:
            fresh = PwlBucket(index, value, hull_epsilon=self.hull_epsilon)
        self.open = fresh
        return fresh

    def extend(self, values: Iterable) -> None:
        """Insert every value of an iterable, in order."""
        if isinstance(values, np.ndarray):
            values = values.tolist()
        insert = self.insert
        for value in values:
            insert(value)

    @property
    def bucket_count(self) -> int:
        """Buckets used so far, counting the open one."""
        return len(self.closed) + (1 if self.open is not None else 0)

    @property
    def items_seen(self) -> int:
        """Number of stream values processed (relative to start_index)."""
        first = self.closed[0].beg if self.closed else (
            self.open.beg if self.open is not None else self._next_index
        )
        return self._next_index - first

    @property
    def metrics(self):
        """Always ``None``: leaf summaries are accounted by their parent."""
        return None

    @property
    def error(self) -> float:
        """Largest bucket error so far (always <= target_error)."""
        if self.bucket_count == 0:
            raise EmptySummaryError("no values inserted yet")
        worst = 0.0
        for bucket in self.closed:
            if bucket.error > worst:
                worst = bucket.error
        if self.open is not None and self.open.error > worst:
            worst = self.open.error
        return worst

    def histogram(self) -> Histogram:
        """The current piecewise-linear approximation."""
        if self.bucket_count == 0:
            raise EmptySummaryError("no values inserted yet")
        segments = [bucket.segment() for bucket in self.closed]
        if self.open is not None:
            segments.append(self.open.segment())
        return Histogram(segments, self.error)

    def memory_bytes(self, model: MemoryModel = DEFAULT_MODEL) -> int:
        """Closed buckets at 4 words each plus the open bucket's hull."""
        total = model.buckets(len(self.closed))
        if self.open is not None:
            total += self.open.memory_bytes(model)
        return total


class PwlMinIncrementHistogram:
    """Streaming (1 + eps, 1)-approximate piecewise-linear histogram.

    Parameters
    ----------
    buckets:
        Target bucket count ``B``.
    epsilon:
        Ladder approximation parameter in (0, 1).
    universe:
        Size ``U`` of the integer value domain ``[0, U)``.
    hull_epsilon:
        Width slack of the open buckets' approximate hulls; the unified
        default :data:`~repro.core.interface.DEFAULT_HULL_EPSILON`
        (``None``) keeps exact hulls.  When set, the effective
        approximation factor composes to roughly
        ``(1 + epsilon) / (1 - hull_epsilon)``.
    memory_model:
        Cost model used by :meth:`memory_bytes`.
    metrics:
        Opt-in instrumentation: ``True`` for a private registry, or a
        shared :class:`~repro.observability.MetricsRegistry`; default off
        (see ``docs/OBSERVABILITY.md``).
    """

    def __init__(
        self,
        buckets: int,
        epsilon: float,
        universe: int,
        *,
        hull_epsilon: Optional[float] = DEFAULT_HULL_EPSILON,
        include_zero_level: bool = True,
        memory_model: MemoryModel = DEFAULT_MODEL,
        metrics=None,
    ):
        if buckets < 1:
            raise InvalidParameterError(f"buckets must be >= 1, got {buckets}")
        self.target_buckets = buckets
        self.epsilon = epsilon
        self.universe = universe
        self.hull_epsilon = hull_epsilon
        self.ladder = ErrorLadder(
            epsilon, universe, include_zero_level=include_zero_level
        )
        self._model = memory_model
        self._summaries = [
            PwlGreedyInsertSummary(level, hull_epsilon=hull_epsilon)
            for level in self.ladder
        ]
        self._n = 0
        self._metrics = resolve_metrics(metrics)
        if self._metrics is not None:
            self._metrics.bind_gauges(self)

    # -- ingestion -----------------------------------------------------------------

    def insert(self, value) -> None:
        """Process the next stream value."""
        if self._metrics is None:
            self._ingest(value)
            return
        self._ingest_observed((value,))

    def extend(self, values: Iterable) -> None:
        """Insert every value of an iterable, in order.

        The same per-item loop as :meth:`insert`: the slope-strip
        certificate (:mod:`repro.core.pwl_bucket`) makes most ladder
        levels' trials O(1), and levels with identical open buckets share
        one, so no separate batch kernel is needed.  With
        instrumentation on, the batch emits one ``on_insert`` event with
        the item count (for the prefix ingested before a bad value, when
        one raises).
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
        """Feed one value to every live level; returns the levels killed."""
        if not 0 <= value < self.universe:
            raise DomainError(
                f"value {value!r} outside universe [0, {self.universe})"
            )
        self._n += 1
        limit = self.target_buckets
        summaries = self._summaries
        last = summaries[-1]
        dead = 0
        fresh = None
        # Levels run in increasing target order, so the levels that open a
        # bucket at this item share one, and a shared bucket absorbs each
        # point once (PwlGreedyInsertSummary.insert).  Every live level but
        # the last holds at most ``limit`` buckets, so only a level that
        # just opened a bucket can have died.
        for summary in summaries:
            opened = summary.insert(value, fresh)
            if opened is not None:
                fresh = opened
                if summary is not last and summary.bucket_count > limit:
                    dead += 1
        if dead:
            self._summaries = [
                s for s in summaries if s.bucket_count <= limit or s is last
            ]
        return dead

    def _ingest_observed(self, values) -> None:
        """Instrumented ingest of a batch: one event set for all of it."""
        start = perf_counter()
        best = self._summaries[0]
        best_buckets = best.bucket_count
        n = dead = 0
        try:
            for value in values:
                dead += self._ingest(value)
                n += 1
        finally:
            if n:
                m = self._metrics
                if dead:
                    m.on_promotion(dead)
                if self._summaries[0] is best:
                    absorbed = n - (best.bucket_count - best_buckets)
                    if absorbed > 0:
                        m.on_merge(absorbed)
                m.on_insert(n, latency=perf_counter() - start)

    # -- queries --------------------------------------------------------------------

    @property
    def items_seen(self) -> int:
        """Number of stream values processed so far."""
        return self._n

    @property
    def metrics(self) -> Optional[SummaryMetrics]:
        """Instrumentation facade, or ``None`` when not instrumented."""
        return self._metrics

    @property
    def alive_levels(self) -> list[float]:
        """Target errors whose summaries still fit in ``B`` buckets."""
        return [s.target_error for s in self._summaries]

    def best_summary(self) -> PwlGreedyInsertSummary:
        """The surviving summary with the smallest target error."""
        if self._n == 0:
            raise EmptySummaryError("no values inserted yet")
        return self._summaries[0]

    def histogram(self) -> Histogram:
        """The (1 + eps, 1)-approximate PWL histogram."""
        return self.best_summary().histogram()

    @property
    def error(self) -> float:
        """Actual error of the answer histogram."""
        return self.best_summary().error

    def memory_bytes(self) -> int:
        """Accounted memory across the surviving summaries."""
        total = sum(s.memory_bytes(self._model) for s in self._summaries)
        total += self._model.ladder_entries(len(self._summaries))
        return total
