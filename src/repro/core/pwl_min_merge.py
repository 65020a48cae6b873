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

from math import inf
from time import perf_counter
from typing import Iterable, Optional

import numpy as np

from repro.core.batch import MAX_WINDOW, absorbable_prefix, as_batch_array
from repro.core.histogram import Histogram
from repro.core.interface import DEFAULT_HULL_EPSILON
from repro.core.pwl_bucket import PwlBucket
from repro.core.soa import SoaPwlMinMerge
from repro.exceptions import EmptySummaryError, InvalidParameterError
from repro.memory.model import DEFAULT_MODEL, MemoryModel
from repro.observability.hooks import SummaryMetrics, resolve_metrics
from repro.structures.heap import AddressableMinHeap
from repro.structures.linked_list import BucketList, BucketNode


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
    backend:
        ``"object"`` (default) keeps the linked nodes plus addressable
        heap; ``"soa"`` runs the same algorithm on the
        structure-of-arrays control plane (:mod:`repro.core.soa`) with
        hull geometry unchanged -- bit-identical output, less per-item
        interpreter overhead.
    """

    def __init__(
        self,
        buckets: int,
        *,
        hull_epsilon: Optional[float] = DEFAULT_HULL_EPSILON,
        working_buckets: Optional[int] = None,
        memory_model: MemoryModel = DEFAULT_MODEL,
        metrics=None,
        backend: str = "object",
    ):
        if buckets < 1:
            raise InvalidParameterError(f"buckets must be >= 1, got {buckets}")
        if working_buckets is None:
            working_buckets = 2 * buckets
        if working_buckets < 1:
            raise InvalidParameterError(
                f"working_buckets must be >= 1, got {working_buckets}"
            )
        if backend not in ("object", "soa"):
            raise InvalidParameterError(
                f"backend must be 'object' or 'soa', got {backend!r}"
            )
        self.target_buckets = buckets
        self.working_buckets = working_buckets
        self.hull_epsilon = hull_epsilon
        self.backend = backend
        self._model = memory_model
        # _soa must exist before the first ``self._n`` assignment: the
        # items-seen counter is a property that forwards into the kernel.
        self._soa = (
            SoaPwlMinMerge(working_buckets, hull_epsilon)
            if backend == "soa"
            else None
        )
        self._list = BucketList()
        self._heap = AddressableMinHeap()
        self._n = 0
        self._metrics = resolve_metrics(metrics)
        if self._metrics is not None:
            self._metrics.bind_gauges(self)

    # ``_n`` (items seen) lives inside the kernel under backend="soa";
    # external collaborators (the parallel shard builder, checkpoint
    # restore) assign ``summary._n`` directly, so the facade forwards
    # both directions.
    @property
    def _n(self) -> int:
        soa = self._soa
        return soa.n if soa is not None else self.__count

    @_n.setter
    def _n(self, value: int) -> None:
        soa = self._soa
        if soa is not None:
            soa.n = value
        else:
            self.__count = value

    # -- ingestion ------------------------------------------------------------

    def insert(self, value) -> None:
        """Process the next stream value."""
        observe = self._metrics is not None
        start = perf_counter() if observe else 0.0
        merged = self._insert_plain(value)
        if observe:
            if merged:
                self._metrics.on_merge()
            self._metrics.on_insert(latency=perf_counter() - start)

    def _insert_plain(self, value) -> bool:
        """Uninstrumented insert; returns whether a merge happened."""
        soa = self._soa
        if soa is not None:
            return soa.insert(value)
        bucket = PwlBucket(self._n, value, hull_epsilon=self.hull_epsilon)
        node = self._list.append(bucket)
        if node.prev is not None:
            self._push_pair_key(node.prev)
        merged = False
        if len(self._list) > self.working_buckets:
            self._merge_min_pair()
            merged = True
        self._n += 1
        return merged

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
        soa = self._soa
        chunk = soa.extend_chunk if soa is not None else self._extend_chunk
        merges = 0
        for off in range(0, n, MAX_WINDOW):
            merges += chunk(arr[off : off + MAX_WINDOW])
        if observe:
            if merges:
                self._metrics.on_merge(merges)
            self._metrics.on_insert(n, latency=perf_counter() - start)

    def _extend_chunk(self, arr) -> int:
        """Batch-ingest one chunk (exact hulls); returns merges performed."""
        lst = self._list
        cap = self.working_buckets
        n = len(arr)
        i = 0
        merges = 0
        while i < n and len(lst) < cap:
            self._insert_plain(arr[i].item())
            i += 1
        if i == n:
            return 0
        if cap == 1:
            # One working bucket: every arriving point merges into it.
            node = lst.head
            while i < n:
                node.bucket = node.bucket.merged_with(
                    PwlBucket(self._n, arr[i].item(), hull_epsilon=None)
                )
                self._n += 1
                merges += 1
                i += 1
            return merges
        heap = self._heap
        short = 0
        block = 64
        while i < n:
            if short >= 8:
                # Sticky scalar fallback, as in MinMergeHistogram.
                short = 0
                stop = min(n, i + block)
                if block < MAX_WINDOW:
                    block *= 8
                for v in arr[i:stop].tolist():
                    if self._insert_plain(v):
                        merges += 1
                i = stop
                if i == n:
                    break
            tail = lst.tail
            prev = tail.prev
            handle = prev.pair_handle
            pair_key = heap.key_of(handle)[0]
            if heap.peek_min_handle() != handle:
                static_min = heap._keys[0][0]
            else:
                slot = heap._slot_of[handle]
                static_min = inf
                for s, key in enumerate(heap._keys):
                    if s != slot and key[0] < static_min:
                        static_min = key[0]
            threshold = pair_key if pair_key < static_min else static_min
            ylo, yhi = tail.bucket.hull.y_extent()
            j, _, _ = absorbable_prefix(
                arr, arr, i, ylo, yhi, threshold, inclusive=False
            )
            run = j - i
            if run:
                for v in arr[i:j].tolist():
                    tail.bucket = tail.bucket.merged_with(
                        PwlBucket(self._n, v, hull_epsilon=None)
                    )
                    self._n += 1
                merges += run
                i = j
                self._update_pair_key(prev)
            if run < 4:
                short += 1
            else:
                short = 0
                block = 64
            if i < n:
                if self._insert_plain(arr[i].item()):
                    merges += 1
                i += 1
        return merges

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
        soa = self._soa
        if soa is not None:
            soa.adopt_buckets(buckets, count)
            return
        last = self._list.tail.bucket.end if len(self._list) else None
        span = 0
        for bucket in buckets:
            if last is not None and bucket.beg <= last:
                raise InvalidParameterError(
                    f"adopted bucket [{bucket.beg}, {bucket.end}] does not "
                    f"follow the current tail (last covered index {last})"
                )
            last = bucket.end
            span += bucket.end - bucket.beg + 1
            node = self._list.append(bucket)
            if node.prev is not None:
                self._push_pair_key(node.prev)
        self._n += span if count is None else count

    def compact(self) -> int:
        """Merge cheapest adjacent pairs until the working budget holds.

        Returns the number of merges performed.
        """
        soa = self._soa
        if soa is not None:
            return soa.compact()
        merges = 0
        while len(self._list) > self.working_buckets:
            self._merge_min_pair()
            merges += 1
        return merges

    # -- queries ----------------------------------------------------------------

    @property
    def items_seen(self) -> int:
        """Number of stream values processed so far."""
        return self._n

    @property
    def metrics(self) -> Optional[SummaryMetrics]:
        """Instrumentation facade, or ``None`` when not instrumented."""
        return self._metrics

    @property
    def bucket_count(self) -> int:
        """Current number of working buckets."""
        soa = self._soa
        return soa.size if soa is not None else len(self._list)

    @property
    def error(self) -> float:
        """Current summary error (largest bucket line-fit error)."""
        soa = self._soa
        if soa is not None:
            if soa.size == 0:
                raise EmptySummaryError("no values inserted yet")
            return soa.error()
        if not self._list:
            raise EmptySummaryError("no values inserted yet")
        return max(node.bucket.error for node in self._list)

    def buckets_snapshot(self) -> list[PwlBucket]:
        """The current buckets, in stream order (shared, do not mutate)."""
        soa = self._soa
        if soa is not None:
            return soa.buckets_snapshot()
        return self._list.buckets()

    def histogram(self) -> Histogram:
        """The current piecewise-linear approximation."""
        if self.bucket_count == 0:
            raise EmptySummaryError("no values inserted yet")
        segments = [bucket.segment() for bucket in self.buckets_snapshot()]
        return Histogram(segments, self.error)

    def memory_bytes(self) -> int:
        """Accounted memory: bucket headers, hull vertices, heap entries.

        Under ``backend="soa"`` the heap term counts the lazy heap's
        actual entries (stale included); compaction bounds it at a small
        multiple of the pair count.
        """
        soa = self._soa
        if soa is not None:
            total = self._model.heap_entries(len(soa.heap))
            for bucket in soa.buckets_snapshot():
                total += bucket.memory_bytes(self._model)
            return total
        total = self._model.heap_entries(len(self._heap))
        for node in self._list:
            total += node.bucket.memory_bytes(self._model)
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

    # -- internals -----------------------------------------------------------------

    def _push_pair_key(self, left: BucketNode) -> None:
        # Tuple key (error, beg): ties break on the leftmost pair so FINDMIN
        # is a pure function of the bucket list, independent of heap layout
        # history (see MinMergeHistogram._push_pair_key).
        key = left.bucket.merge_error_with(left.next.bucket)
        left.pair_handle = self._heap.push((key, left.bucket.beg), left)

    def _update_pair_key(self, left: BucketNode) -> None:
        # In-place key refresh: bit-identical to remove + push (keys are
        # unique (error, beg) tuples) at half the heap traffic -- see
        # MinMergeHistogram._update_pair_key.
        key = left.bucket.merge_error_with(left.next.bucket)
        self._heap.update(left.pair_handle, (key, left.bucket.beg))

    def _merge_min_pair(self) -> None:
        # Same entry-recycling merge as MinMergeHistogram._merge_min_pair.
        heap = self._heap
        # The popped key is the union's error, fitted on the very hull
        # merged_with builds, so it seeds the merged bucket's error.
        key, left = heap.pop_min()
        left.pair_handle = None
        right = left.next
        right_handle = right.pair_handle
        left.bucket = left.bucket.merged_with(right.bucket, key[0])
        self._list.remove(right)
        if left.prev is not None:
            self._update_pair_key(left.prev)
        if left.next is not None:
            key = left.bucket.merge_error_with(left.next.bucket)
            heap.update(right_handle, (key, left.bucket.beg), item=left)
            left.pair_handle = right_handle
        elif right_handle is not None:  # pragma: no cover - defensive
            heap.remove(right_handle)
