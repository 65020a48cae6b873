"""The MIN-MERGE algorithm (Section 2.1, Algorithm 1).

MIN-MERGE maintains at most ``2B`` buckets.  Every arriving value first gets
its own singleton bucket; when the budget is exceeded, the two *adjacent*
buckets whose union has the smallest error are merged.  Theorem 1: the
resulting 2B-bucket histogram has error at most that of the *optimal*
B-bucket histogram -- a (1, 2)-approximation -- using O(B) memory and
O(log B) time per item.

FINDMIN follows Section 2.1.1: a min-heap holds one key per adjacent pair
(the error of merging that pair).  The maintenance loop runs on the
structure-of-arrays kernel in :mod:`repro.core.soa`, whose heap is the C
``heapq`` with lazy deletion (:mod:`repro.core.soa_heap`).

The analysis rests on the *min-merge property*: at all times, merging any
two adjacent buckets would produce error at least ``err(S)``.
:meth:`MinMergeHistogram.check_min_merge_property` verifies it directly and
is exercised by the property-based tests.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, Optional

from repro.core.batch import MAX_WINDOW, as_batch_array
from repro.core.bucket import Bucket
from repro.core.histogram import Histogram, Segment
from repro.core.soa import SoaMinMerge
from repro.exceptions import EmptySummaryError, InvalidParameterError
from repro.memory.model import DEFAULT_MODEL, MemoryModel
from repro.observability.hooks import SummaryMetrics, resolve_metrics


class MinMergeHistogram:
    """Streaming (1, 2)-approximate L-infinity histogram.

    Parameters
    ----------
    buckets:
        The target bucket count ``B``.  The summary keeps up to ``2 * B``
        working buckets and guarantees error no worse than the optimal
        ``B``-bucket histogram (Theorem 1).
    working_buckets:
        Override for the working budget (defaults to ``2 * buckets``).
        Exposed for the ablation benchmarks; values below ``2 * buckets``
        void the (1, 2) guarantee.
    memory_model:
        Cost model used by :meth:`memory_bytes`.
    metrics:
        Opt-in instrumentation: ``True`` for a private registry, or a
        shared :class:`~repro.observability.MetricsRegistry`; default off
        (see ``docs/OBSERVABILITY.md``).

    Examples
    --------
    >>> h = MinMergeHistogram(buckets=2)
    >>> for v in [1, 1, 1, 10, 10, 10]:
    ...     h.insert(v)
    >>> hist = h.histogram()
    >>> hist.error
    0.0
    """

    def __init__(
        self,
        buckets: int,
        *,
        working_buckets: Optional[int] = None,
        memory_model: MemoryModel = DEFAULT_MODEL,
        metrics=None,
    ):
        if buckets < 1:
            raise InvalidParameterError(f"buckets must be >= 1, got {buckets}")
        if working_buckets is None:
            working_buckets = 2 * buckets
        if working_buckets < 1:
            raise InvalidParameterError(
                f"working_buckets must be >= 1, got {working_buckets}"
            )
        self.target_buckets = buckets
        self.working_buckets = working_buckets
        self._model = memory_model
        self._soa = SoaMinMerge(working_buckets)
        self._metrics = resolve_metrics(metrics)
        if self._metrics is not None:
            self._metrics.bind_gauges(self)
            # Route ingestion through the instrumented twin, bound on the
            # instance so the uninstrumented path pays nothing for it.
            self.insert = self._insert_observed
        else:
            # Uninstrumented ingest skips the facade frame entirely: the
            # kernel's insert is the whole per-item path.
            self.insert = self._soa.insert

    # Items seen live inside the kernel so the hot loops touch a single
    # counter; the parallel shard builder and checkpoint restore assign
    # ``summary._n`` directly, so the facade forwards both directions.
    @property
    def _n(self) -> int:
        return self._soa.n

    @_n.setter
    def _n(self, value: int) -> None:
        self._soa.n = value

    # -- stream ingestion --------------------------------------------------

    def insert(self, value) -> None:
        """Process the next stream value (Algorithm 1)."""
        self._soa.insert(value)

    def _insert_observed(self, value) -> None:
        """Instrumented twin of :meth:`insert` (same algorithm + hooks)."""
        start = perf_counter()
        if self._soa.insert(value):
            self._metrics.on_merge()
        self._metrics.on_insert(latency=perf_counter() - start)

    def extend(self, values: Iterable) -> None:
        """Insert every value of an iterable, in order.

        Lists and numeric ndarrays take the vectorized fast path: at steady
        state the arriving singleton is merged into the tail exactly when
        its pair key is the strict heap minimum, so the kernel pre-computes
        the longest such run with NumPy accumulates and absorbs it in one
        O(log B) step.  Bucket state is identical to the scalar loop; with
        instrumentation on, the batch emits one ``on_insert`` event
        carrying the item count instead of one event per item.
        """
        arr = as_batch_array(values)
        if arr is None:
            for value in values:
                self.insert(value)
            return
        n = len(arr)
        if n == 0:
            return
        observe = self._metrics is not None
        start = perf_counter() if observe else 0.0
        chunk = self._soa.extend_chunk
        merges = 0
        for off in range(0, n, MAX_WINDOW):
            merges += chunk(arr[off : off + MAX_WINDOW])
        if observe:
            if merges:
                self._metrics.on_merge(merges)
            self._metrics.on_insert(n, latency=perf_counter() - start)

    def insert_run(self, beg: int, end: int, lo, hi) -> bool:
        """Try to ingest a pre-reduced run of values in O(log B).

        The run covers stream indices ``[beg, end]`` (continuing at
        ``items_seen``) with value bounds ``lo`` / ``hi``.  Returns True
        when every item of the run would provably be absorbed into the
        tail bucket by Algorithm 1 -- the run's worst-case pair key stays
        strictly below both the evolving (prev, tail) key and the cheapest
        untouched pair -- leaving the summary exactly as if each value had
        been inserted.  Returns False (summary untouched) otherwise.
        """
        return self._soa.insert_run(beg, end, lo, hi)

    # -- aggregation hooks ---------------------------------------------------

    def adopt_buckets(self, buckets: Iterable[Bucket], *, count: Optional[int] = None) -> None:
        """Append pre-built buckets after the current tail.

        The hook behind :func:`repro.core.aggregation.merge_min_merge_summaries`
        and the parallel shard combiner: ``buckets`` must be in stream order
        and start strictly after the current last covered index.  Each bucket
        is copied, pair keys are maintained, and ``items_seen`` grows by
        ``count`` (default: the covered index span).  No compaction happens
        here -- call :meth:`compact` to re-establish the working budget.
        """
        self._soa.adopt_buckets(buckets, count)

    def compact(self) -> int:
        """Merge cheapest adjacent pairs until the working budget holds.

        Returns the number of merges performed.  A no-op on summaries
        already within ``working_buckets``.
        """
        return self._soa.compact()

    # -- queries -----------------------------------------------------------

    @property
    def items_seen(self) -> int:
        """Number of stream values processed so far."""
        return self._soa.n

    @property
    def metrics(self) -> Optional[SummaryMetrics]:
        """Instrumentation facade, or ``None`` when not instrumented."""
        return self._metrics

    @property
    def bucket_count(self) -> int:
        """Current number of working buckets."""
        return self._soa.size

    @property
    def error(self) -> float:
        """Current summary error ``err(S)`` -- the largest bucket error."""
        if self._soa.size == 0:
            raise EmptySummaryError("no values inserted yet")
        return self._soa.error()

    def buckets_snapshot(self) -> list[Bucket]:
        """Copy of the current buckets, in stream order."""
        return self._soa.buckets_snapshot()

    def histogram(self) -> Histogram:
        """The current piecewise-constant approximation."""
        soa = self._soa
        if soa.size == 0:
            raise EmptySummaryError("no values inserted yet")
        segments = [
            Segment(b, e, (hi + lo) / 2.0, (hi + lo) / 2.0)
            for b, e, lo, hi in soa.iter_buckets()
        ]
        return Histogram(segments, soa.error())

    def memory_bytes(self) -> int:
        """Accounted memory: buckets plus one heap key per adjacent pair.

        The Section 2.1.1 model.  The lazy heap also holds stale entries
        until compaction (at most ``4x`` the live pairs); they are an
        implementation cost, not part of the algorithm's space.
        """
        size = self._soa.size
        return self._model.buckets(size) + self._model.heap_entries(max(size - 1, 0))

    # -- invariants (used by tests) -----------------------------------------

    def check_min_merge_property(self) -> None:
        """Assert that merging any adjacent pair has error >= err(S).

        This is the invariant behind Lemma 1; the paper's induction shows it
        holds after every completed insert (before the summary fills, all
        buckets are singletons with err(S) = 0 and it holds vacuously).
        """
        if self.bucket_count < 2:
            return
        current = self.error
        snapshot = self.buckets_snapshot()
        for left, right in zip(snapshot, snapshot[1:]):
            pair_error = left.merge_error_with(right)
            if pair_error >= current:
                continue
            raise AssertionError(
                f"min-merge property violated: pair at [{left.beg},"
                f"{right.end}] merges with error {pair_error} "
                f"< err(S) = {current}"
            )
