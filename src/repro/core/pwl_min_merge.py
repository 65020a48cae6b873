"""PWL MIN-MERGE (Section 3.2, Theorem 3).

Identical control flow to the serial MIN-MERGE -- keep at most ``2B``
buckets, always merge the adjacent pair whose union has the least error --
but each bucket is a :class:`~repro.core.pwl_bucket.PwlBucket` whose error
is the optimal line-fit error of its hull, and MERGE unions the two hulls
(linear time, since the buckets are adjacent and hence x-disjoint).

With size-capped hulls (``hull_epsilon`` set) this is the paper's
(1 + eps, 2)-approximation in ``O(eps^{-1/2} B log(1/eps))`` memory; with
exact hulls (``hull_epsilon=None``) the approximation is exactly (1, 2) at
data-dependent memory.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, Optional

import numpy as np

from repro.core.batch import MAX_WINDOW, as_batch_array
from repro.core.histogram import Histogram
from repro.core.interface import DEFAULT_HULL_EPSILON
from repro.core.pwl_bucket import PwlBucket
from repro.core.soa import SoaPwlMinMerge
from repro.exceptions import EmptySummaryError, InvalidParameterError
from repro.memory.model import DEFAULT_MODEL, MemoryModel
from repro.observability.hooks import SummaryMetrics, resolve_metrics


class PwlMinMergeHistogram:
    """Streaming (1 + eps, 2)-approximate piecewise-linear histogram.

    Parameters
    ----------
    buckets:
        Target bucket count ``B``; up to ``2 * B`` working buckets.
    hull_epsilon:
        Relative width slack of the per-bucket approximate hulls (the
        ``eps`` of Theorem 3).  The unified default
        :data:`~repro.core.interface.DEFAULT_HULL_EPSILON` (``None``)
        keeps exact hulls -- the (1, 2) guarantee at data-dependent
        memory; pass a float in (0, 1) for the paper's bounded-memory
        variant (the harness registry uses ``0.1``).
    working_buckets:
        Override for the working budget (defaults to ``2 * buckets``).
    memory_model:
        Cost model used by :meth:`memory_bytes`.
    metrics:
        Opt-in instrumentation: ``True`` for a private registry, or a
        shared :class:`~repro.observability.MetricsRegistry`; default off
        (see ``docs/OBSERVABILITY.md``).

    The maintenance loop -- slot chain, cached pair keys, lazy heap -- is
    :class:`~repro.core.soa.SoaPwlMinMerge`; hull geometry stays in
    :class:`~repro.core.pwl_bucket.PwlBucket`.
    """

    def __init__(
        self,
        buckets: int,
        *,
        hull_epsilon: Optional[float] = DEFAULT_HULL_EPSILON,
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
        self.hull_epsilon = hull_epsilon
        self._model = memory_model
        self._soa = SoaPwlMinMerge(working_buckets, hull_epsilon)
        self._metrics = resolve_metrics(metrics)
        if self._metrics is not None:
            self._metrics.bind_gauges(self)

    # Items seen live inside the kernel; the parallel shard builder and
    # checkpoint restore assign ``summary._n`` directly, so the facade
    # forwards both directions.
    @property
    def _n(self) -> int:
        return self._soa.n

    @_n.setter
    def _n(self, value: int) -> None:
        self._soa.n = value

    # -- ingestion ------------------------------------------------------------

    def insert(self, value) -> None:
        """Process the next stream value."""
        if self._metrics is None:
            self._soa.insert(value)
            return
        start = perf_counter()
        if self._soa.insert(value):
            self._metrics.on_merge()
        self._metrics.on_insert(latency=perf_counter() - start)

    def extend(self, values: Iterable) -> None:
        """Insert every value of an iterable, in order.

        With exact hulls (``hull_epsilon=None``), lists and numeric
        ndarrays take a vectorized fast path: half the combined vertical
        extent bounds the tail's pair key from above, and exact hulls make
        every pair key monotone under point absorption, so a run whose
        bound stays strictly below the cheapest competing key is absorbed
        with the same per-item hull unions the scalar path performs but
        without its pair-key recomputations and heap churn.  Size-capped
        hulls fall back to the scalar loop -- compression can shrink keys,
        which voids the monotonicity certificate (an ndarray is unboxed
        once with ``tolist()`` first).  With instrumentation on, a batch
        emits one ``on_insert`` event carrying the item count.
        """
        arr = as_batch_array(values) if self.hull_epsilon is None else None
        if arr is None:
            if isinstance(values, np.ndarray):
                values = values.tolist()
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

    # -- aggregation hooks ---------------------------------------------------

    def adopt_buckets(self, buckets: Iterable[PwlBucket], *, count: Optional[int] = None) -> None:
        """Append pre-built PWL buckets after the current tail.

        PWL analogue of :meth:`MinMergeHistogram.adopt_buckets`: ``buckets``
        must be in stream order and start strictly after the current last
        covered index.  The bucket objects are adopted as-is (callers that
        need to keep theirs must pass copies -- hull state is shared), pair
        keys are maintained, and ``items_seen`` grows by ``count`` (default:
        the covered index span).  Call :meth:`compact` afterwards to
        re-establish the working budget.
        """
        self._soa.adopt_buckets(buckets, count)

    def compact(self) -> int:
        """Merge cheapest adjacent pairs until the working budget holds.

        Returns the number of merges performed.
        """
        return self._soa.compact()

    # -- queries ----------------------------------------------------------------

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
        """Current summary error (largest bucket line-fit error)."""
        if self._soa.size == 0:
            raise EmptySummaryError("no values inserted yet")
        return self._soa.error()

    def buckets_snapshot(self) -> list[PwlBucket]:
        """The current buckets, in stream order (shared, do not mutate)."""
        return self._soa.buckets_snapshot()

    def histogram(self) -> Histogram:
        """The current piecewise-linear approximation."""
        if self.bucket_count == 0:
            raise EmptySummaryError("no values inserted yet")
        segments = [bucket.segment() for bucket in self.buckets_snapshot()]
        return Histogram(segments, self.error)

    def memory_bytes(self) -> int:
        """Accounted memory: bucket headers, hull vertices, pair keys.

        One heap key per adjacent pair, as in
        :meth:`MinMergeHistogram.memory_bytes`; the lazy heap's stale
        entries are an implementation cost outside the model.
        """
        buckets = self._soa.buckets_snapshot()
        total = self._model.heap_entries(max(len(buckets) - 1, 0))
        for bucket in buckets:
            total += bucket.memory_bytes(self._model)
        return total

    def check_min_merge_property(self) -> None:
        """PWL analogue of the serial min-merge invariant (tests).

        With exact hulls the property is exact; with approximate hulls it
        holds up to the hull width slack, so the check allows a
        ``(1 - hull_epsilon)`` margin.
        """
        if self.bucket_count < 2:
            return
        slack = 1.0 if self.hull_epsilon is None else 1.0 - self.hull_epsilon
        current = self.error
        snapshot = self.buckets_snapshot()
        for left, right in zip(snapshot, snapshot[1:]):
            pair_error = left.merge_error_with(right)
            if pair_error >= slack * current - 1e-9:
                continue
            raise AssertionError(
                f"PWL min-merge property violated: pair at [{left.beg},"
                f"{right.end}] merges with error {pair_error} "
                f"< {slack} * err(S) = {slack * current}"
            )
