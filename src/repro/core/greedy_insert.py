"""GREEDY-INSERT: the optimal dual solver (Section 2.2, Lemma 2).

For a *fixed* target error ``e``, GREEDY-INSERT minimizes the number of
buckets needed to approximate the stream within error ``e``: it keeps the
last bucket *open* and extends it with each arriving value for as long as
the bucket's half-range stays within ``e``; when the next value would push
the error past ``e``, the bucket is closed and a fresh one opened.
Lemma 2 proves this greedy is exactly optimal -- no algorithm can cover the
same stream within error ``e`` using fewer buckets.

MIN-INCREMENT runs one of these summaries per ladder level; the sliding
window variant reuses it with an expiry/trim policy (Section 4.1).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.core.batch import MAX_WINDOW, as_batch_array, greedy_chunk
from repro.core.bucket import Bucket
from repro.core.histogram import Histogram, Segment
from repro.exceptions import EmptySummaryError, InvalidParameterError
from repro.memory.model import DEFAULT_MODEL, MemoryModel


class GreedyInsertSummary:
    """Minimum-bucket approximation of a stream for one target error.

    Parameters
    ----------
    target_error:
        The error budget ``e >= 0``; every bucket's half-range is kept
        ``<= e``.
    start_index:
        Absolute stream index of the first value this summary will see
        (0 for full-stream use).
    """

    __slots__ = ("target_error", "closed", "open", "_next_index", "_model")

    def __init__(
        self,
        target_error: float,
        *,
        start_index: int = 0,
        memory_model: MemoryModel = DEFAULT_MODEL,
    ):
        if not target_error >= 0:
            raise InvalidParameterError(
                f"target_error must be >= 0, got {target_error}"
            )
        self.target_error = target_error
        self.closed: list[Bucket] = []
        self.open: Optional[Bucket] = None
        self._next_index = start_index
        self._model = memory_model

    # -- ingestion -----------------------------------------------------------

    def insert(self, value) -> None:
        """GREEDY-INSERT one value."""
        if self.open is None:
            self.open = Bucket.singleton(self._next_index, value)
        elif self.open.would_extend_error(value) <= self.target_error:
            self.open.extend(value)
        else:
            self.closed.append(self.open)
            self.open = Bucket.singleton(self._next_index, value)
        self._next_index += 1

    def extend(self, values: Iterable) -> None:
        """Insert every value of an iterable, in order.

        Lists and numeric ndarrays route through the vectorized kernel of
        :mod:`repro.core.batch`; the result is identical to the scalar
        loop, item for item.
        """
        arr = as_batch_array(values)
        if arr is None:
            for value in values:
                self.insert(value)
            return
        for off in range(0, len(arr), MAX_WINDOW):
            chunk = arr[off : off + MAX_WINDOW]
            self.open, _ = greedy_chunk(
                chunk,
                self._next_index,
                self.open,
                self.closed.append,
                self.target_error,
            )
            self._next_index += len(chunk)

    # -- queries ---------------------------------------------------------------

    @property
    def items_seen(self) -> int:
        """Number of stream values processed (relative to start_index)."""
        first = self.closed[0].beg if self.closed else (
            self.open.beg if self.open is not None else self._next_index
        )
        return self._next_index - first

    @property
    def metrics(self):
        """Always ``None``: leaf summaries run inside MIN-INCREMENT's
        ladder, whose parent does the event accounting -- instrumenting the
        per-level hot loop would multiply the overhead by the ladder size."""
        return None

    @property
    def bucket_count(self) -> int:
        """Buckets used so far, counting the open one."""
        return len(self.closed) + (1 if self.open is not None else 0)

    def buckets_snapshot(self) -> list[Bucket]:
        """Copy of all buckets (closed plus open), in stream order."""
        out = [Bucket(b.beg, b.end, b.min, b.max) for b in self.closed]
        if self.open is not None:
            b = self.open
            out.append(Bucket(b.beg, b.end, b.min, b.max))
        return out

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
        """The current piecewise-constant approximation."""
        if self.bucket_count == 0:
            raise EmptySummaryError("no values inserted yet")
        buckets = self.closed
        if self.open is not None:
            buckets = buckets + [self.open]
        segments = []
        for b in buckets:
            mid = b.representative
            segments.append(Segment(b.beg, b.end, mid, mid))
        return Histogram(segments, self.error)

    def memory_bytes(self, model: Optional[MemoryModel] = None) -> int:
        """Accounted memory: closed buckets plus the open-bucket state,
        under ``model`` (default: the constructor's ``memory_model``)."""
        if model is None:
            model = self._model
        total = model.buckets(len(self.closed))
        if self.open is not None:
            total += model.open_buckets(1)
        return total


def greedy_bucket_count(values: Sequence, target_error: float) -> int:
    """Minimum buckets to cover ``values`` within ``target_error``.

    Convenience wrapper used by the offline optimal algorithm and the
    tests; runs GREEDY-INSERT over the whole sequence and returns the
    bucket count (0 for an empty sequence).
    """
    if not len(values):
        return 0
    summary = GreedyInsertSummary(target_error)
    summary.extend(values)
    return summary.bucket_count
