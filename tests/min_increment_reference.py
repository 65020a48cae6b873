"""Reference oracle for MIN-INCREMENT: the plain per-level ladder loop.

Algorithm 2 as written -- every value goes into every surviving
GREEDY-INSERT level, and a level that outgrows ``B`` buckets is dropped --
plus the per-level ``extend``: the last level takes one vectorized
:func:`greedy_chunk` pass, every other level runs :func:`greedy_until_dead`,
which stops feeding it once it is dead.  The certified ladder of
:class:`repro.core.min_increment.MinIncrementHistogram` must match it bit
for bit: same levels, same buckets, same reads.
"""

from __future__ import annotations

from typing import Optional

from repro.checkpoint import _greedy_state
from repro.core.batch import MAX_WINDOW, as_batch_array
from repro.core.error_ladder import ErrorLadder
from repro.core.greedy_insert import GreedyInsertSummary
from repro.exceptions import DomainError
from repro.memory.model import DEFAULT_MODEL


def greedy_until_dead(summary: GreedyInsertSummary, values, limit: int) -> int:
    """GREEDY-INSERT ``values`` until ``summary`` holds over ``limit`` buckets.

    MIN-INCREMENT's early exit: such a level is dead (Lemma 2) and will be
    discarded, so the rest of the chunk is unobservable.  Returns the
    number of values consumed.
    """
    consumed = 0
    for value in values:
        if summary.bucket_count > limit:
            break
        summary.insert(value)
        consumed += 1
    return consumed


class ReferenceMinIncrement:
    """Unbuffered MIN-INCREMENT with no certificate and no pending run."""

    def __init__(
        self,
        buckets: int,
        epsilon: float,
        universe: int,
        *,
        include_zero_level: bool = True,
    ):
        self.target_buckets = buckets
        self.epsilon = epsilon
        self.universe = universe
        self.ladder = ErrorLadder(
            epsilon, universe, include_zero_level=include_zero_level
        )
        self._summaries = [GreedyInsertSummary(e) for e in self.ladder]
        self._n = 0

    def _check_domain(self, value) -> None:
        if not 0 <= value < self.universe:
            raise DomainError(f"value {value!r} outside universe")

    def insert(self, value) -> None:
        self._check_domain(value)
        self._n += 1
        limit = self.target_buckets
        survivors = []
        for summary in self._summaries:
            summary.insert(value)
            if summary.bucket_count <= limit or summary is self._summaries[-1]:
                survivors.append(summary)
        self._summaries = survivors

    def extend(self, values) -> None:
        arr = as_batch_array(values)
        if arr is None:
            for value in values:
                self.insert(value)
            return
        bad = (arr < 0) | (arr >= self.universe)
        if bad.any():
            offender = int(bad.argmax())
            if offender:
                self.extend(values[:offender])
            self._check_domain(arr[offender].item())
        for off in range(0, len(arr), MAX_WINDOW):
            self._extend_chunk(arr[off : off + MAX_WINDOW])

    def _extend_chunk(self, arr) -> None:
        limit = self.target_buckets
        last = self._summaries[-1]
        survivors = []
        values = arr.tolist()
        for summary in self._summaries:
            is_last = summary is last
            if is_last:
                summary.extend(arr)
            else:
                greedy_until_dead(summary, values, limit)
            if summary.bucket_count <= limit or is_last:
                survivors.append(summary)
        self._summaries = survivors
        self._n += len(arr)

    # -- reads ------------------------------------------------------------------

    @property
    def items_seen(self) -> int:
        return self._n

    @property
    def alive_levels(self) -> list:
        return [s.target_error for s in self._summaries]

    def histogram(self):
        return self._summaries[0].histogram()

    @property
    def error(self) -> float:
        return self._summaries[0].error

    def buckets_for_error(self, error: float) -> tuple:
        lower = 1
        upper: Optional[int] = None
        for summary in self._summaries:
            if summary.target_error <= error:
                upper = summary.bucket_count
            else:
                lower = summary.bucket_count
                break
        return lower, upper

    def memory_bytes(self) -> int:
        total = sum(s.memory_bytes() for s in self._summaries)
        total += DEFAULT_MODEL.ladder_entries(len(self._summaries))
        return total

    def state(self) -> dict:
        """The same dict :func:`repro.checkpoint.state_dict` writes."""
        return {
            "kind": "min-increment",
            "buckets": self.target_buckets,
            "epsilon": self.epsilon,
            "universe": self.universe,
            "include_zero": self.ladder[0] == 0.0,
            "batch_size": None,
            "items_seen": self._n,
            "buffer": [],
            "summaries": [_greedy_state(s) for s in self._summaries],
        }
