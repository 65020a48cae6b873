"""Reference oracles for MIN-MERGE: the linked-list + addressable-heap kernels.

These are the plain formulations the structure-of-arrays kernels in
:mod:`repro.core.soa` must match bit for bit:

* :class:`MinMergeReference` -- Algorithm 1 over a :class:`BucketList`,
  with FINDMIN by the addressable min-heap of Section 2.1.1 (one
  ``(merge_error, beg)`` key per adjacent pair) or, with
  ``findmin="linear"``, by the O(B) scan the paper's own experiments ran
  (footnote 4);
* :class:`PwlMinMergeReference` -- the same loop over PWL buckets
  (Section 3.2), whose merge error is the union hull's line-fit error.

Both ingest one value at a time; ``extend`` is the scalar loop (an
ndarray is unboxed with ``tolist()`` first, as the kernels do).
"""

from __future__ import annotations

import numpy as np

from repro.core.bucket import Bucket
from repro.core.histogram import Histogram, Segment
from repro.core.pwl_bucket import PwlBucket
from repro.memory.model import DEFAULT_MODEL
from repro.structures.heap import AddressableMinHeap
from repro.structures.linked_list import BucketList


class MinMergeReference:
    """Object-kernel MIN-MERGE (Algorithm 1)."""

    kind = "min-merge"

    def __init__(self, buckets, *, working_buckets=None, findmin="heap"):
        if findmin not in ("heap", "linear"):
            raise ValueError(f"findmin must be 'heap' or 'linear', got {findmin!r}")
        self.target_buckets = buckets
        self.working_buckets = working_buckets or 2 * buckets
        self.findmin = findmin
        self._list = BucketList()
        self._heap = AddressableMinHeap()
        self.items_seen = 0

    # -- buckets of this family ----------------------------------------------

    def _singleton(self, index, value):
        return Bucket.singleton(index, value)

    def _copy(self, bucket):
        return Bucket(bucket.beg, bucket.end, bucket.min, bucket.max)

    def _union(self, left, right, error):
        return left.merged_with(right)

    def _bucket_state(self, bucket):
        return [bucket.beg, bucket.end, bucket.min, bucket.max]

    def _segment(self, bucket):
        return Segment(bucket.beg, bucket.end, bucket.representative, bucket.representative)

    # -- ingestion -------------------------------------------------------------

    def insert(self, value):
        self._append(self._singleton(self.items_seen, value))
        self.items_seen += 1
        self.compact()

    def extend(self, values):
        if isinstance(values, np.ndarray):
            values = values.tolist()
        for value in values:
            self.insert(value)

    def adopt_buckets(self, buckets, *, count=None):
        span = 0
        for bucket in buckets:
            span += bucket.end - bucket.beg + 1
            self._append(self._copy(bucket))
        self.items_seen += span if count is None else count

    def compact(self):
        merges = 0
        while len(self._list) > self.working_buckets:
            if self.findmin == "heap":
                self._merge_min_pair()
            else:
                self._merge_min_pair_linear()
            merges += 1
        return merges

    def _append(self, bucket):
        node = self._list.append(bucket)
        if node.prev is not None and self.findmin == "heap":
            self._push_pair_key(node.prev)

    def _push_pair_key(self, left):
        # Ties break on the leftmost pair, so FINDMIN is a pure function of
        # the bucket list rather than of the heap's insertion history.
        key = left.bucket.merge_error_with(left.next.bucket)
        left.pair_handle = self._heap.push((key, left.bucket.beg), left)

    def _merge_min_pair(self):
        """FINDMIN + MERGE: pop the cheapest pair, rekey its neighbours."""
        key, left = self._heap.pop_min()
        left.pair_handle = None
        right = left.next
        if right.pair_handle is not None:
            self._heap.remove(right.pair_handle)
            right.pair_handle = None
        left.bucket = self._union(left.bucket, right.bucket, key[0])
        self._list.remove(right)
        if left.prev is not None:
            self._heap.remove(left.prev.pair_handle)
            self._push_pair_key(left.prev)
        if left.next is not None:
            self._push_pair_key(left)

    def _merge_min_pair_linear(self):
        """FINDMIN by O(B) scan; strict ``<`` keeps the leftmost cheapest."""
        best = best_key = None
        node = self._list.head
        while node.next is not None:
            key = node.bucket.merge_error_with(node.next.bucket)
            if best_key is None or key < best_key:
                best, best_key = node, key
            node = node.next
        right = best.next
        best.bucket = self._union(best.bucket, right.bucket, best_key)
        self._list.remove(right)

    # -- queries ---------------------------------------------------------------

    @property
    def bucket_count(self):
        return len(self._list)

    @property
    def error(self):
        return max(node.bucket.error for node in self._list)

    def buckets_snapshot(self):
        return self._list.buckets()

    def histogram(self):
        return Histogram([self._segment(b) for b in self._list.buckets()], self.error)

    def memory_bytes(self, model=DEFAULT_MODEL):
        """Section 2.1.1: buckets plus the heap's keys (none when linear)."""
        return model.buckets(len(self._list)) + model.heap_entries(len(self._heap))

    def state_dict(self):
        """The kernel-independent fields of ``repro.checkpoint.state_dict``."""
        return {
            "kind": self.kind,
            "buckets": self.target_buckets,
            "working_buckets": self.working_buckets,
            "items_seen": self.items_seen,
            "bucket_list": [self._bucket_state(b) for b in self._list.buckets()],
        }

    def check_heap_consistency(self):
        """Every adjacent pair holds its current key; nothing else is held."""
        self._heap.check_invariant()
        if self.findmin == "linear":
            assert len(self._heap) == 0, "linear FINDMIN populated the heap"
            return
        pairs = 0
        node = self._list.head
        while node is not None and node.next is not None:
            expected = (node.bucket.merge_error_with(node.next.bucket), node.bucket.beg)
            assert self._heap.key_of(node.pair_handle) == expected
            pairs += 1
            node = node.next
        assert pairs == len(self._heap)


class PwlMinMergeReference(MinMergeReference):
    """Object-kernel PWL MIN-MERGE (Section 3.2, heap FINDMIN)."""

    kind = "pwl-min-merge"

    def __init__(self, buckets, *, hull_epsilon=None, working_buckets=None):
        super().__init__(buckets, working_buckets=working_buckets)
        self.hull_epsilon = hull_epsilon

    def _singleton(self, index, value):
        return PwlBucket(index, value, hull_epsilon=self.hull_epsilon)

    def _copy(self, bucket):
        return bucket

    def _union(self, left, right, error):
        # The popped key is the union's error, fitted on the hull
        # merged_with builds, so it seeds the merged bucket's error.
        return left.merged_with(right, error)

    def _bucket_state(self, bucket):
        return bucket.to_state()

    def _segment(self, bucket):
        return bucket.segment()

    def memory_bytes(self, model=DEFAULT_MODEL):
        """Heap keys plus each bucket's header and hull vertices."""
        total = model.heap_entries(len(self._heap))
        return total + sum(b.memory_bytes(model) for b in self._list.buckets())

    def state_dict(self):
        state = super().state_dict()
        state["hull_epsilon"] = self.hull_epsilon
        return state
