"""Structure-of-arrays MIN-MERGE kernels (Sections 2.1 and 3.2).

These kernels run the MIN-MERGE maintenance loop behind
:class:`~repro.core.min_merge.MinMergeHistogram` and
:class:`~repro.core.pwl_min_merge.PwlMinMergeHistogram` over flat columns
indexed by integer *slots* instead of linked ``Bucket`` objects:
``beg``/``end``/``mn``/``mx`` hold the bucket state, ``prv``/``nxt`` form
an intrusive doubly-linked list of slots (``-1`` terminates, ``-2`` marks
a freed slot), and ``pkey`` caches each adjacent pair's merge error for
the lazy-deletion heap in :mod:`repro.core.soa_heap`.  There are no
per-item allocations on the hot path -- freed slots are recycled through
a free list -- and FINDMIN runs on the C ``heapq`` instead of an
interpreted sift.

The columns are plain Python lists, not numpy arrays: CPython list
indexing costs a fraction of ndarray scalar indexing, and the scalar
``insert()`` loop is the per-item hot path.  Numpy is used where it wins
-- the batched ``extend`` certificate -- and :meth:`SoaMinMerge.as_arrays`
materializes the columns as contiguous arrays on demand: the natural FFI
ABI should a native kernel ever slot in behind the same facade.

Every decision is a pure function of the bucket list: merge keys are the
unique ``(error, beg)`` tuples (ties go to the leftmost pair), and min/max
unions keep the left endpoint object on ties (preserving ``int`` vs
``float`` identity).  The linked-list + addressable-heap kernels this
layout replaced are kept as oracles in ``tests/min_merge_reference.py``,
and ``tests/test_min_merge_reference.py`` holds these kernels to them bit
for bit, after every operation.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, Optional

import numpy as np

from repro.core.batch import MAX_WINDOW, absorbable_prefix
from repro.core.bucket import Bucket
from repro.core.pwl_bucket import PwlBucket
from repro.core.soa_heap import (
    COMPACT_FLOOR,
    COMPACT_RATIO,
    check_heap,
    compact,
    pop_min_valid,
    static_min_excluding,
)
from repro.exceptions import InvalidParameterError


class SoaMinMerge:
    """Array-backed serial MIN-MERGE kernel (Algorithm 1)."""

    __slots__ = (
        "cap",
        "beg",
        "end",
        "mn",
        "mx",
        "prv",
        "nxt",
        "pkey",
        "free",
        "head",
        "tail",
        "size",
        "heap",
        "n",
    )

    def __init__(self, working_buckets: int):
        self.cap = working_buckets
        self.beg: list = []
        self.end: list = []
        self.mn: list = []
        self.mx: list = []
        self.prv: list = []
        self.nxt: list = []
        self.pkey: list = []
        self.free: list = []
        self.head = -1
        self.tail = -1
        self.size = 0
        self.heap: list = []
        self.n = 0

    # -- ingestion ---------------------------------------------------------

    def insert(self, value) -> bool:
        """Process one stream value; returns whether a merge happened.

        Two specializations, both bit-identical to Algorithm 1's
        append-then-merge:

        * **Tail-absorb fast path.**  At capacity, if the would-be
          (tail, singleton) pair key is strictly below ``heap[0]``, that
          pair is certifiably FINDMIN's answer: ``heap[0]`` lower-bounds
          every current pair key (each pair keeps a current entry), and
          no current entry can carry the tail's ``beg``, so the strict
          tuple compare ``(key, beg[tail]) < heap[0]`` proves the new
          pair is the unique leftmost-cheapest.  Appending the singleton
          and merging it back is then just extending the tail in place
          -- no allocation, no heap traffic.  A stale ``heap[0]`` can
          only under-estimate and send us down the general path, which
          is correct either way.
        * **Inlined merge.**  The general path inlines
          FINDMIN + MERGE rather than delegating to helpers: at capacity
          every insert merges, so the call frames are a measurable slice
          of the per-item budget.
        """
        n = self.n
        t = self.tail
        if self.size >= self.cap and t >= 0:
            mn = self.mn
            mx = self.mx
            heap = self.heap
            lo = mn[t]
            if value < lo:
                lo = value
            hi = mx[t]
            if value > hi:
                hi = value
            key = (hi - lo) / 2.0
            bt = self.beg[t]
            if not heap or (key, bt) < heap[0]:
                mn[t] = lo
                mx[t] = hi
                self.end[t] = n
                self.n = n + 1
                p = self.prv[t]
                if p >= 0:
                    pkey = self.pkey
                    plo = mn[p]
                    if lo < plo:
                        plo = lo
                    phi = mx[p]
                    if hi > phi:
                        phi = hi
                    k2 = (phi - plo) / 2.0
                    if k2 != pkey[p]:
                        pkey[p] = k2
                        heappush(heap, (k2, self.beg[p], p))
                        if len(heap) > COMPACT_FLOOR and len(
                            heap
                        ) > COMPACT_RATIO * self.size:
                            compact(heap, self.nxt, self.beg, pkey)
                return True
        nxt = self.nxt
        prv = self.prv
        beg = self.beg
        end = self.end
        mn = self.mn
        mx = self.mx
        pkey = self.pkey
        heap = self.heap
        t = self.tail
        free = self.free
        if free:
            s = free.pop()
            beg[s] = n
            end[s] = n
            mn[s] = value
            mx[s] = value
            prv[s] = t
            nxt[s] = -1
        else:
            s = len(nxt)
            beg.append(n)
            end.append(n)
            mn.append(value)
            mx.append(value)
            prv.append(t)
            nxt.append(-1)
            pkey.append(0.0)
        if t >= 0:
            nxt[t] = s
            # merge_error_with(prev, singleton), keeping prev's endpoint
            # object on ties exactly like Bucket.merge_error_with.
            lo = mn[t]
            if value < lo:
                lo = value
            hi = mx[t]
            if value > hi:
                hi = value
            key = (hi - lo) / 2.0
            pkey[t] = key
            heappush(heap, (key, beg[t], t))
        else:
            self.head = s
        self.tail = s
        size = self.size + 1
        self.size = size
        self.n = n + 1
        if size <= self.cap:
            return False
        # -- inlined _merge_cheapest_pair ------------------------------------
        while True:
            err, b, s = heappop(heap)
            if nxt[s] >= 0 and beg[s] == b and pkey[s] == err:
                break
        r = nxt[s]
        v = mn[r]
        if v < mn[s]:
            mn[s] = v
        v = mx[r]
        if v > mx[s]:
            mx[s] = v
        end[s] = end[r]
        rn = nxt[r]
        nxt[s] = rn
        if rn >= 0:
            prv[rn] = s
            lo = mn[s]
            v = mn[rn]
            if v < lo:
                lo = v
            hi = mx[s]
            v = mx[rn]
            if v > hi:
                hi = v
            key = (hi - lo) / 2.0
            pkey[s] = key
            heappush(heap, (key, beg[s], s))
        else:
            self.tail = s
        nxt[r] = -2
        free.append(r)
        size -= 1
        self.size = size
        p = prv[s]
        if p >= 0:
            lo = mn[p]
            v = mn[s]
            if v < lo:
                lo = v
            hi = mx[p]
            v = mx[s]
            if v > hi:
                hi = v
            key = (hi - lo) / 2.0
            if key != pkey[p]:
                pkey[p] = key
                heappush(heap, (key, beg[p], p))
        if len(heap) > COMPACT_FLOOR and len(heap) > COMPACT_RATIO * size:
            compact(heap, nxt, beg, pkey)
        return True

    def _merge_cheapest_pair(self) -> None:
        """FINDMIN + MERGE: collapse the cheapest (leftmost) adjacent pair."""
        heap = self.heap
        nxt = self.nxt
        beg = self.beg
        pkey = self.pkey
        mn = self.mn
        mx = self.mx
        _err, _b, s = pop_min_valid(heap, nxt, beg, pkey)
        r = nxt[s]
        # Union r into s with Bucket.merged_with's tie-breaking: the left
        # endpoint object survives equality.
        v = mn[r]
        if v < mn[s]:
            mn[s] = v
        v = mx[r]
        if v > mx[s]:
            mx[s] = v
        self.end[s] = self.end[r]
        rn = nxt[r]
        nxt[s] = rn
        if rn >= 0:
            self.prv[rn] = s
            lo = mn[s]
            v = mn[rn]
            if v < lo:
                lo = v
            hi = mx[s]
            v = mx[rn]
            if v > hi:
                hi = v
            key = (hi - lo) / 2.0
            pkey[s] = key
            heappush(heap, (key, beg[s], s))
        else:
            self.tail = s
        nxt[r] = -2
        self.free.append(r)
        self.size -= 1
        p = self.prv[s]
        if p >= 0:
            lo = mn[p]
            v = mn[s]
            if v < lo:
                lo = v
            hi = mx[p]
            v = mx[s]
            if v > hi:
                hi = v
            key = (hi - lo) / 2.0
            if key != pkey[p]:
                pkey[p] = key
                heappush(heap, (key, beg[p], p))
        if len(heap) > COMPACT_FLOOR and len(heap) > COMPACT_RATIO * self.size:
            compact(heap, nxt, beg, pkey)

    def extend_chunk(self, arr) -> int:
        """Batch-ingest one chunk; returns the number of merges performed.

        A prefix is absorbed into the tail iff every per-item pair key
        stays strictly below both the evolving (prev, tail) key and the
        cheapest untouched pair, checked with NumPy accumulates and strict
        inequalities -- so the final state is bit-identical to the scalar
        loop regardless of where the windows land.
        """
        insert = self.insert
        cap = self.cap
        n = len(arr)
        i = 0
        while i < n and self.size < cap:
            insert(arr[i].item())
            i += 1
        if i == n:
            return 0
        merges = 0
        mn = self.mn
        mx = self.mx
        if cap == 1:
            rest = arr[i:]
            h = self.head
            self.end[h] = self.n + (n - i) - 1
            lo = rest.min().item()
            hi = rest.max().item()
            if lo < mn[h]:
                mn[h] = lo
            if hi > mx[h]:
                mx[h] = hi
            self.n += n - i
            return n - i
        beg = self.beg
        pkey = self.pkey
        prv = self.prv
        nxt = self.nxt
        heap = self.heap
        window = 256
        short = 0
        block = 64
        while i < n:
            if short >= 8:
                # Sticky scalar fallback: the block grows each time the
                # vectorized probe fails again, so rough streams converge
                # to plain scalar speed (values unboxed once via tolist).
                short = 0
                stop = min(n, i + block)
                if block < MAX_WINDOW:
                    block *= 8
                for v in arr[i:stop].tolist():
                    insert(v)
                merges += stop - i
                i = stop
                if i == n:
                    break
            t = self.tail
            p = prv[t]
            pair_key = pkey[p]
            static_min = static_min_excluding(heap, nxt, beg, pkey, p)
            seg = arr[i : i + window]
            ehi = np.maximum(np.maximum.accumulate(seg), mx[t])
            elo = np.minimum(np.minimum.accumulate(seg), mn[t])
            key = (ehi - elo) / 2.0
            pair = (np.maximum(ehi, mx[p]) - np.minimum(elo, mn[p])) / 2.0
            evolving = np.empty_like(pair)
            evolving[0] = pair_key
            evolving[1:] = pair[:-1]
            good = (key < static_min) & (key < evolving)
            if good.all():
                run = len(seg)
            else:
                run = int(np.argmin(good))
            if run:
                lo = elo[run - 1].item()
                hi = ehi[run - 1].item()
                self.end[t] = self.n + run - 1
                if lo < mn[t]:
                    mn[t] = lo
                if hi > mx[t]:
                    mx[t] = hi
                self.n += run
                merges += run
                i += run
                lo = mn[p]
                v = mn[t]
                if v < lo:
                    lo = v
                hi = mx[p]
                v = mx[t]
                if v > hi:
                    hi = v
                nk = (hi - lo) / 2.0
                if nk != pair_key:
                    pkey[p] = nk
                    heappush(heap, (nk, beg[p], p))
                if run == len(seg):
                    window = min(window * 2, MAX_WINDOW)
                    continue
                window = 256
            if run < 4:
                short += 1
            else:
                short = 0
                block = 64
            if i < n:
                insert(arr[i].item())
                merges += 1
                i += 1
        return merges

    def insert_run(self, beg_i: int, end_i: int, lo, hi) -> bool:
        """O(log B) pre-reduced run ingest (see the facade's docstring)."""
        if beg_i != self.n:
            raise InvalidParameterError(
                f"run starts at {beg_i}, summary expects {self.n}"
            )
        if end_i < beg_i or lo > hi:
            raise InvalidParameterError(
                f"invalid run [{beg_i}, {end_i}] with bounds [{lo}, {hi}]"
            )
        count = end_i - beg_i + 1
        mn = self.mn
        mx = self.mx
        if self.cap == 1 and self.size == 1:
            h = self.head
            self.end[h] = end_i
            if lo < mn[h]:
                mn[h] = lo
            if hi > mx[h]:
                mx[h] = hi
            self.n += count
            return True
        if self.size != self.cap or self.cap < 2:
            return False
        t = self.tail
        p = self.prv[t]
        tmn = mn[t]
        tmx = mx[t]
        new_lo = lo if lo < tmn else tmn
        new_hi = hi if hi > tmx else tmx
        run_key = (new_hi - new_lo) / 2.0
        pair_key = self.pkey[p]
        static_min = static_min_excluding(self.heap, self.nxt, self.beg, self.pkey, p)
        if not (run_key < pair_key and run_key < static_min):
            return False
        self.end[t] = end_i
        mn[t] = new_lo
        mx[t] = new_hi
        plo = mn[p]
        if new_lo < plo:
            plo = new_lo
        phi = mx[p]
        if new_hi > phi:
            phi = new_hi
        key = (phi - plo) / 2.0
        if key != pair_key:
            self.pkey[p] = key
            heappush(self.heap, (key, self.beg[p], p))
        self.n += count
        return True

    # -- aggregation hooks -------------------------------------------------

    def adopt_buckets(self, buckets: Iterable[Bucket], count: Optional[int]) -> None:
        """Append pre-built buckets after the tail (parallel merge hook)."""
        last = self.end[self.tail] if self.size else None
        span = 0
        for bucket in buckets:
            if last is not None and bucket.beg <= last:
                raise InvalidParameterError(
                    f"adopted bucket [{bucket.beg}, {bucket.end}] does not "
                    f"follow the current tail (last covered index {last})"
                )
            last = bucket.end
            span += bucket.end - bucket.beg + 1
            self._append_bucket(bucket.beg, bucket.end, bucket.min, bucket.max)
        self.n += span if count is None else count

    def _append_bucket(self, b: int, e: int, lo, hi) -> None:
        nxt = self.nxt
        t = self.tail
        free = self.free
        if free:
            s = free.pop()
            self.beg[s] = b
            self.end[s] = e
            self.mn[s] = lo
            self.mx[s] = hi
            self.prv[s] = t
            nxt[s] = -1
        else:
            s = len(nxt)
            self.beg.append(b)
            self.end.append(e)
            self.mn.append(lo)
            self.mx.append(hi)
            self.prv.append(t)
            nxt.append(-1)
            self.pkey.append(0.0)
        if t >= 0:
            nxt[t] = s
            plo = self.mn[t]
            if lo < plo:
                plo = lo
            phi = self.mx[t]
            if hi > phi:
                phi = hi
            key = (phi - plo) / 2.0
            self.pkey[t] = key
            heappush(self.heap, (key, self.beg[t], t))
        else:
            self.head = s
        self.tail = s
        self.size += 1

    def compact(self) -> int:
        """Merge cheapest pairs until the working budget holds."""
        merges = 0
        while self.size > self.cap:
            self._merge_cheapest_pair()
            merges += 1
        return merges

    # -- queries -----------------------------------------------------------

    def iter_buckets(self):
        """Yield ``(beg, end, min, max)`` per bucket, in stream order."""
        beg = self.beg
        end = self.end
        mn = self.mn
        mx = self.mx
        nxt = self.nxt
        s = self.head
        while s >= 0:
            yield beg[s], end[s], mn[s], mx[s]
            s = nxt[s]

    def buckets_snapshot(self) -> list:
        """Copy of the current buckets as :class:`Bucket` objects."""
        return [Bucket(b, e, lo, hi) for b, e, lo, hi in self.iter_buckets()]

    def error(self) -> float:
        """Largest bucket error ``err(S)`` (caller checks non-empty)."""
        mn = self.mn
        mx = self.mx
        nxt = self.nxt
        s = self.head
        best = 0.0
        first = True
        while s >= 0:
            e = (mx[s] - mn[s]) / 2.0
            if first or e > best:
                best = e
                first = False
            s = nxt[s]
        return best

    def as_arrays(self) -> dict:
        """Contiguous numpy views of the live columns, in stream order.

        The export format a native (FFI) kernel would consume directly:
        no object graph, just four parallel arrays.
        """
        order = []
        s = self.head
        nxt = self.nxt
        while s >= 0:
            order.append(s)
            s = nxt[s]
        return {
            "beg": np.array([self.beg[s] for s in order], dtype=np.int64),
            "end": np.array([self.end[s] for s in order], dtype=np.int64),
            "min": np.array([self.mn[s] for s in order], dtype=np.float64),
            "max": np.array([self.mx[s] for s in order], dtype=np.float64),
        }

    # -- invariants (tests) ------------------------------------------------

    def check_consistency(self) -> None:
        """Assert chain, column, and lazy-heap invariants."""
        seen = 0
        prev = -1
        s = self.head
        while s >= 0:
            if self.prv[s] != prev:
                raise AssertionError(f"slot {s} has prv {self.prv[s]} != {prev}")
            if prev >= 0:
                if self.beg[s] != self.end[prev] + 1:
                    raise AssertionError(
                        f"slots {prev},{s} are not adjacent in stream order"
                    )
                lo = self.mn[prev] if self.mn[prev] <= self.mn[s] else self.mn[s]
                hi = self.mx[prev] if self.mx[prev] >= self.mx[s] else self.mx[s]
                if self.pkey[prev] != (hi - lo) / 2.0:
                    raise AssertionError(
                        f"stale pkey {self.pkey[prev]} at slot {prev}"
                    )
            seen += 1
            prev = s
            s = self.nxt[s]
        if seen != self.size:
            raise AssertionError(f"chain holds {seen} slots, size says {self.size}")
        if self.size and self.tail != prev:
            raise AssertionError(f"tail {self.tail} is not the chain end {prev}")
        for s in self.free:
            if self.nxt[s] != -2:
                raise AssertionError(f"free slot {s} not marked dead")
        check_heap(self.heap, self.nxt, self.beg, self.pkey)


class SoaPwlMinMerge:
    """Array-backed PWL MIN-MERGE kernel (Section 3.2).

    Hull geometry stays in :class:`PwlBucket` (slot-indexed); the control
    structure -- slot chain, cached pair keys, lazy heap -- is the same
    layout as :class:`SoaMinMerge`.
    """

    __slots__ = (
        "cap",
        "hull_epsilon",
        "bkt",
        "beg",
        "prv",
        "nxt",
        "pkey",
        "free",
        "head",
        "tail",
        "size",
        "heap",
        "n",
    )

    def __init__(self, working_buckets: int, hull_epsilon: Optional[float]):
        self.cap = working_buckets
        self.hull_epsilon = hull_epsilon
        self.bkt: list = []
        self.beg: list = []
        self.prv: list = []
        self.nxt: list = []
        self.pkey: list = []
        self.free: list = []
        self.head = -1
        self.tail = -1
        self.size = 0
        self.heap: list = []
        self.n = 0

    # -- ingestion ---------------------------------------------------------

    def insert(self, value) -> bool:
        """Process one stream value; returns whether a merge happened."""
        n = self.n
        bucket = PwlBucket(n, value, hull_epsilon=self.hull_epsilon)
        nxt = self.nxt
        t = self.tail
        free = self.free
        if free:
            s = free.pop()
            self.bkt[s] = bucket
            self.beg[s] = n
            self.prv[s] = t
            nxt[s] = -1
        else:
            s = len(nxt)
            self.bkt.append(bucket)
            self.beg.append(n)
            self.prv.append(t)
            nxt.append(-1)
            self.pkey.append(0.0)
        if t >= 0:
            nxt[t] = s
            key = self.bkt[t].merge_error_with(bucket)
            self.pkey[t] = key
            heappush(self.heap, (key, self.beg[t], t))
        else:
            self.head = s
        self.tail = s
        self.size += 1
        self.n = n + 1
        if self.size > self.cap:
            self._merge_cheapest_pair()
            return True
        return False

    def _merge_cheapest_pair(self) -> None:
        heap = self.heap
        nxt = self.nxt
        beg = self.beg
        pkey = self.pkey
        bkt = self.bkt
        err, _b, s = pop_min_valid(heap, nxt, beg, pkey)
        r = nxt[s]
        merged = bkt[s].merged_with(bkt[r], err)
        bkt[s] = merged
        rn = nxt[r]
        nxt[s] = rn
        if rn >= 0:
            self.prv[rn] = s
            key = merged.merge_error_with(bkt[rn])
            pkey[s] = key
            heappush(heap, (key, beg[s], s))
        else:
            self.tail = s
        nxt[r] = -2
        bkt[r] = None
        self.free.append(r)
        self.size -= 1
        p = self.prv[s]
        if p >= 0:
            key = bkt[p].merge_error_with(merged)
            if key != pkey[p]:
                pkey[p] = key
                heappush(heap, (key, beg[p], p))
        if len(heap) > COMPACT_FLOOR and len(heap) > COMPACT_RATIO * self.size:
            compact(heap, nxt, beg, pkey)

    def extend_chunk(self, arr) -> int:
        """Batch-ingest one chunk (exact hulls only); returns merges."""
        insert = self.insert
        cap = self.cap
        bkt = self.bkt
        n = len(arr)
        i = 0
        merges = 0
        while i < n and self.size < cap:
            insert(arr[i].item())
            i += 1
        if i == n:
            return 0
        if cap == 1:
            h = self.head
            tb = bkt[h]
            for v in arr[i:].tolist():
                tb = tb.merged_with(PwlBucket(self.n, v, hull_epsilon=None))
                self.n += 1
                merges += 1
            bkt[h] = tb
            return merges
        beg = self.beg
        pkey = self.pkey
        prv = self.prv
        nxt = self.nxt
        heap = self.heap
        short = 0
        block = 64
        while i < n:
            if short >= 8:
                short = 0
                stop = min(n, i + block)
                if block < MAX_WINDOW:
                    block *= 8
                for v in arr[i:stop].tolist():
                    if insert(v):
                        merges += 1
                i = stop
                if i == n:
                    break
            t = self.tail
            p = prv[t]
            pair_key = pkey[p]
            static_min = static_min_excluding(heap, nxt, beg, pkey, p)
            threshold = pair_key if pair_key < static_min else static_min
            ylo, yhi = bkt[t].hull.y_extent()
            j, _, _ = absorbable_prefix(
                arr, arr, i, ylo, yhi, threshold, inclusive=False
            )
            run = j - i
            if run:
                tb = bkt[t]
                for v in arr[i:j].tolist():
                    tb = tb.merged_with(PwlBucket(self.n, v, hull_epsilon=None))
                    self.n += 1
                bkt[t] = tb
                merges += run
                i = j
                key = bkt[p].merge_error_with(tb)
                if key != pair_key:
                    pkey[p] = key
                    heappush(heap, (key, beg[p], p))
            if run < 4:
                short += 1
            else:
                short = 0
                block = 64
            if i < n:
                if insert(arr[i].item()):
                    merges += 1
                i += 1
        return merges

    # -- aggregation hooks -------------------------------------------------

    def adopt_buckets(self, buckets: Iterable[PwlBucket], count: Optional[int]) -> None:
        """Append pre-built PWL buckets (adopted as-is, hulls shared)."""
        last = self.bkt[self.tail].end if self.size else None
        span = 0
        for bucket in buckets:
            if last is not None and bucket.beg <= last:
                raise InvalidParameterError(
                    f"adopted bucket [{bucket.beg}, {bucket.end}] does not "
                    f"follow the current tail (last covered index {last})"
                )
            last = bucket.end
            span += bucket.end - bucket.beg + 1
            self._append_bucket(bucket)
        self.n += span if count is None else count

    def _append_bucket(self, bucket: PwlBucket) -> None:
        nxt = self.nxt
        t = self.tail
        free = self.free
        if free:
            s = free.pop()
            self.bkt[s] = bucket
            self.beg[s] = bucket.beg
            self.prv[s] = t
            nxt[s] = -1
        else:
            s = len(nxt)
            self.bkt.append(bucket)
            self.beg.append(bucket.beg)
            self.prv.append(t)
            nxt.append(-1)
            self.pkey.append(0.0)
        if t >= 0:
            nxt[t] = s
            key = self.bkt[t].merge_error_with(bucket)
            self.pkey[t] = key
            heappush(self.heap, (key, self.beg[t], t))
        else:
            self.head = s
        self.tail = s
        self.size += 1

    def compact(self) -> int:
        """Merge cheapest pairs until the working budget holds."""
        merges = 0
        while self.size > self.cap:
            self._merge_cheapest_pair()
            merges += 1
        return merges

    # -- queries -----------------------------------------------------------

    def buckets_snapshot(self) -> list:
        """The current buckets, in stream order (shared, do not mutate)."""
        out = []
        s = self.head
        while s >= 0:
            out.append(self.bkt[s])
            s = self.nxt[s]
        return out

    def error(self) -> float:
        """Largest bucket line-fit error (caller checks non-empty)."""
        best = 0.0
        first = True
        s = self.head
        while s >= 0:
            e = self.bkt[s].error
            if first or e > best:
                best = e
                first = False
            s = self.nxt[s]
        return best

    # -- invariants (tests) ------------------------------------------------

    def check_consistency(self) -> None:
        """Assert chain, cached-key, and lazy-heap invariants."""
        seen = 0
        prev = -1
        s = self.head
        while s >= 0:
            if self.prv[s] != prev:
                raise AssertionError(f"slot {s} has prv {self.prv[s]} != {prev}")
            if self.beg[s] != self.bkt[s].beg:
                raise AssertionError(f"beg column stale at slot {s}")
            if prev >= 0:
                expected = self.bkt[prev].merge_error_with(self.bkt[s])
                if self.pkey[prev] != expected:
                    raise AssertionError(
                        f"stale pkey {self.pkey[prev]} at slot {prev}"
                    )
            seen += 1
            prev = s
            s = self.nxt[s]
        if seen != self.size:
            raise AssertionError(f"chain holds {seen} slots, size says {self.size}")
        if self.size and self.tail != prev:
            raise AssertionError(f"tail {self.tail} is not the chain end {prev}")
        check_heap(self.heap, self.nxt, self.beg, self.pkey)
