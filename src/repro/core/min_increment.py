"""The MIN-INCREMENT algorithm (Section 2.2, Algorithm 2).

MIN-INCREMENT keeps one GREEDY-INSERT summary per level of a geometric
error ladder ``e_i = (1 + eps)^i``.  Every stream value is inserted into
every surviving summary; a summary that grows beyond ``B`` buckets is
deleted, because by Lemma 2 the optimal B-bucket error must exceed its
target.  At query time the surviving summary with the smallest target error
is the answer: it uses at most ``B`` buckets and, by inequality 2, its error
is within ``(1 + eps)`` of optimal -- a (1 + eps, 1)-approximation in
``O(eps^-1 B log U)`` space (Theorem 2).

Written as in Algorithm 2, every value touches every level.  This
implementation gives the ladder a *pending run* -- the count,
min and max of the values every surviving level is known to absorb but has
not yet been written -- and a *certificate*: three bounds, re-armed each
time the levels are brought up to date, within which the next value
provably fits every level's open bucket.  A certified value is only
counted; a value outside the certificate makes some level close a bucket,
and each non-top level closes at most ``B`` before it dies, so the
per-level step runs at most ``B (L - 1)`` times over a summary's lifetime
and ``insert()`` is amortized O(1) without a buffer.  Every read writes
the pending run out first; the result is exactly Algorithm 2's, bucket for
bucket (see ``docs/ALGORITHMS.md`` for the soundness argument).

Section 2.2.2 reaches the same amortized bound by buffering arrivals and
testing the whole buffer's min/max against each open bucket; the
certificate applies that O(1) absorb test to each value against exact
thresholds instead, so no buffer is kept.
"""

from __future__ import annotations

import math
import struct
from time import perf_counter
from typing import Iterable, Optional

import numpy as np

from repro.core.batch import _START_WINDOW, MAX_WINDOW, as_batch_array
from repro.core.bucket import Bucket
from repro.core.error_ladder import ErrorLadder
from repro.core.greedy_insert import GreedyInsertSummary
from repro.core.histogram import Histogram
from repro.exceptions import (
    DomainError,
    EmptySummaryError,
    InvalidParameterError,
)
from repro.memory.model import DEFAULT_MODEL, MemoryModel
from repro.observability.hooks import SummaryMetrics, resolve_metrics

_INF = math.inf

#: Value types whose half-range test is plain float64 arithmetic, so the
#: certificate's float thresholds decide it exactly.  ``bool``, NumPy
#: scalars and ``Fraction`` are not among them: they take the exact
#: per-level step.
_EXACT_TYPES = (int, float)

#: Largest universe whose values all convert to float64 exactly.
_EXACT_UNIVERSE = 1 << 53

#: Batches shorter than this skip the pruning pass: its fixed NumPy cost
#: is then larger than the per-level steps it could save.
_PRUNE_MIN = 4096

#: A failing window this short is scanned value by value, not halved.
_SCAN = 256

#: Smallest block whose half-range is tested by the pruning pass.
_PRUNE_BLOCK = 8

#: The sign bit of a float64's bit pattern.
_SIGN = 1 << 63


def _order(x: float) -> int:
    """Position of ``x`` in float order: adjacent floats, adjacent ints."""
    k = struct.unpack("<q", struct.pack("<d", x))[0]
    return k if k >= 0 else -(k & (_SIGN - 1))


def _unorder(k: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", k if k >= 0 else -k | _SIGN))[0]


def _cap(lo, e: float, slack: float, top: float) -> float:
    """Largest float ``u`` with ``(u - lo) / 2.0 <= e``.

    The caller guarantees that ``top`` fails the test and that
    ``lo + 2.0 * e`` lies within ``slack`` of the answer.  The test is
    monotone in ``u``: a few ``nextafter`` steps settle it when the
    subtraction is exact, and a bisection over float order does otherwise
    (a cap near 0 can lie ~2**60 of its own ulps from the estimate).  The
    lower cap on ``hi`` is ``-_cap(-hi, e, slack, 0.0)``: IEEE subtraction
    is symmetric under negation, so that is the same test.
    """
    u = lo + 2.0 * e
    for _ in range(4):
        if u >= top or (u - lo) / 2.0 > e:
            u = math.nextafter(u, -_INF)
            continue
        up = math.nextafter(u, _INF)
        if up >= top or (up - lo) / 2.0 > e:
            return u
        u = up
    good = u - slack
    if not (lo <= good < top and (good - lo) / 2.0 <= e):
        good = float(lo)
    bad = u + slack
    if not (bad < top and (bad - lo) / 2.0 > e):
        bad = top
    good, bad = _order(good), _order(bad)
    while bad - good > 1:
        mid = (good + bad) // 2
        if (_unorder(mid) - lo) / 2.0 <= e:
            good = mid
        else:
            bad = mid
    return _unorder(good)


class MinIncrementHistogram:
    """Streaming (1 + eps, 1)-approximate L-infinity histogram.

    Parameters
    ----------
    buckets:
        Target bucket count ``B``.
    epsilon:
        Approximation parameter in (0, 1); the answer's error is at most
        ``(1 + epsilon)`` times the optimal ``B``-bucket error.
    universe:
        Size ``U`` of the integer value domain ``[0, U)``.  Values outside
        the domain raise :class:`DomainError` (the theory's ladder top
        depends on ``U``).
    memory_model:
        Cost model used by :meth:`memory_bytes`.
    metrics:
        Opt-in instrumentation: ``True`` for a private registry, or a
        shared :class:`~repro.observability.MetricsRegistry`; default off
        (see ``docs/OBSERVABILITY.md``).

    Examples
    --------
    >>> h = MinIncrementHistogram(buckets=4, epsilon=0.2, universe=1 << 15)
    >>> h.extend([5, 5, 5, 900, 900, 42, 42, 42])
    >>> hist = h.histogram()
    >>> len(hist) <= 4
    True
    """

    def __init__(
        self,
        buckets: int,
        epsilon: float,
        universe: int,
        *,
        include_zero_level: bool = True,
        memory_model: MemoryModel = DEFAULT_MODEL,
        metrics=None,
    ):
        if buckets < 1:
            raise InvalidParameterError(f"buckets must be >= 1, got {buckets}")
        self.target_buckets = buckets
        self.universe = universe
        self.ladder = ErrorLadder(
            epsilon, universe, include_zero_level=include_zero_level
        )
        self.epsilon = epsilon
        self._model = memory_model
        self._summaries: list[GreedyInsertSummary] = [
            GreedyInsertSummary(level, memory_model=memory_model)
            for level in self.ladder
        ]
        self._n = 0
        # The certificate is armed only where its float thresholds decide
        # the half-range test exactly (see _arm).
        self._exact = universe <= _EXACT_UNIVERSE
        self._run = 0
        self._disarm()
        self._metrics = resolve_metrics(metrics)
        if self._metrics is not None:
            self._metrics.bind_gauges(self)
            self.insert = self._insert_observed

    # -- ingestion -------------------------------------------------------------

    def insert(self, value) -> None:
        """Process the next stream value (Algorithm 2).

        A value inside the certificate is only counted into the pending
        run; any other value takes the exact per-level step.
        """
        if not 0 <= value < self.universe:
            raise DomainError(
                f"value {value!r} outside universe [0, {self.universe})"
            )
        self._n += 1
        if value > self._hi:
            if (
                value > self._cap_hi
                or (value - self._lo) / 2.0 > self._span
                or type(value) not in _EXACT_TYPES
            ):
                self._step(value)
                return
            self._hi = value
        elif value < self._lo:
            if (
                value < self._cap_lo
                or (self._hi - value) / 2.0 > self._span
                or type(value) not in _EXACT_TYPES
            ):
                self._step(value)
                return
            self._lo = value
        self._run += 1

    def _insert_observed(self, value) -> None:
        """:meth:`insert` plus event accounting; a certified value is a merge."""
        start = perf_counter()
        run = self._run
        MinIncrementHistogram.insert(self, value)
        if self._run > run:
            self._metrics.on_merge()
        self._metrics.on_insert(latency=perf_counter() - start)

    def extend(self, values: Iterable) -> None:
        """Insert every value of an iterable, in order.

        Lists and numeric ndarrays take the vectorized path: windows of
        values are certified whole by their min and max, and the short
        stretch around each uncertified value runs the scalar loop, exact
        per-level step included.  A batch of at least 4096 values first
        drops the levels it provably kills (see :meth:`_prune`).  The
        final state matches the scalar loop exactly.
        Out-of-domain values still raise :class:`DomainError` with the
        prefix before the offending item ingested, as the scalar loop
        would.  With instrumentation on, the batch emits one ``on_insert``
        event carrying the item count instead of one event per item.
        """
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
            self._check_domain(arr[offender].item())  # raises DomainError
        observe = self._metrics is not None
        start = perf_counter() if observe else 0.0
        certified = self._extend_certified(arr)
        if observe:
            if certified:
                self._metrics.on_merge(certified)
            self._metrics.on_insert(n, latency=perf_counter() - start)

    def _extend_certified(self, arr) -> int:
        """Batch ingest; returns the number of certified values."""
        n = len(arr)
        self._n += n
        if not self._exact:
            for value in arr.tolist():
                self._step(value)
            return 0
        # float64 / int64: the pruning pass's block half-ranges are then
        # the ones the scalar test computes.
        arr = arr.astype(np.float64 if arr.dtype.kind == "f" else np.int64, copy=False)
        if n >= _PRUNE_MIN and self._metrics is None:
            # Pruning moves the answer level mid-batch, which the merge
            # counter would observe; instrumented summaries skip it.
            self._prune(arr)
        certified = 0
        i = 0
        while i < n:
            j = self._certified_prefix(arr, i)
            certified += j - i
            # The first uncertified value is within _SCAN of j.
            i = min(n, j + _SCAN)
            certified += self._scalar_block(arr[j:i].tolist())
        return certified

    def _certified_prefix(self, arr, i: int) -> int:
        """Count certified values from ``arr[i]`` on, a window at a time.

        Windows of doubling length are tested whole by their min and max
        (every condition is monotone in the run's extremes); a window that
        fails is halved.  Returns where the certified windows end: at most
        ``_SCAN`` values before the first uncertified one (or at the end).
        """
        lo, hi = self._lo, self._hi
        if lo > hi:  # disarmed
            return i
        cap_lo, cap_hi, span = self._cap_lo, self._cap_hi, self._span
        n = len(arr)
        start = i
        window = _START_WINDOW
        grow = True
        while i < n:
            seg = arr[i : i + window]
            top = seg.max().item()
            bottom = seg.min().item()
            if top < hi:
                top = hi
            if bottom > lo:
                bottom = lo
            if top <= cap_hi and bottom >= cap_lo and (top - bottom) / 2.0 <= span:
                lo, hi = bottom, top
                i += len(seg)
                if grow:
                    window = min(window * 2, MAX_WINDOW)
                continue
            if len(seg) <= _SCAN:
                break
            # Halve towards the first uncertified value.
            window = len(seg) // 2
            grow = False
        self._lo, self._hi = lo, hi
        self._run += i - start
        return i

    def _scalar_block(self, values: list) -> int:
        """:meth:`insert` over plain Python values already domain-checked.

        Returns the number of values certified.
        """
        lo, hi, run = self._lo, self._hi, self._run
        cap_lo, cap_hi, span = self._cap_lo, self._cap_hi, self._span
        steps = 0
        for v in values:
            if v > hi:
                if v <= cap_hi and (v - lo) / 2.0 <= span:
                    hi = v
                    run += 1
                    continue
            elif v < lo:
                if v >= cap_lo and (hi - v) / 2.0 <= span:
                    lo = v
                    run += 1
                    continue
            else:
                run += 1
                continue
            self._run = run
            self._lo, self._hi = lo, hi
            self._step(v)
            steps += 1
            lo, hi, run = self._lo, self._hi, 0
            cap_lo, cap_hi, span = self._cap_lo, self._cap_hi, self._span
        self._run = run
        self._lo, self._hi = lo, hi
        return len(values) - steps

    def _prune(self, arr) -> None:
        """Drop the levels that provably die inside the batch ``arr``.

        A block of consecutive values whose half-range exceeds a level's
        target cannot sit in one bucket of that level, so a bucket begins
        inside it; disjoint blocks force distinct boundaries.  A level
        whose bucket count plus its forced boundaries exceeds ``B`` dies
        before the batch ends, and the values after its death are
        unobservable, so dropping it now leaves the final state unchanged.
        Blocks of 8, 16, 32, ... values are built pairwise in O(n).
        """
        levels = self._summaries
        if len(levels) < 2:
            return
        m = len(arr) - len(arr) % _PRUNE_BLOCK
        bmin = bmax = arr[:m]
        size = 1
        targets = np.array([s.target_error for s in levels[:-1]])
        forced = np.zeros(len(targets), dtype=np.int64)
        while len(bmin) > 1:
            p = len(bmin) - len(bmin) % 2
            bmin = np.minimum(bmin[0:p:2], bmin[1:p:2])
            bmax = np.maximum(bmax[0:p:2], bmax[1:p:2])
            size *= 2
            if size >= _PRUNE_BLOCK:
                half = np.sort((bmax - bmin) / 2.0)
                hits = len(half) - np.searchsorted(half, targets, side="right")
                np.maximum(forced, hits, out=forced)
        limit = self.target_buckets
        survivors = [
            s for s, f in zip(levels, forced.tolist()) if s.bucket_count + f <= limit
        ]
        if len(survivors) < len(levels) - 1:
            survivors.append(levels[-1])
            self._settle()
            self._summaries = survivors
            self._arm()

    def flush(self) -> None:
        """Bring every level up to date: write the pending run out (a
        no-op when it is empty).  Every read does this itself."""
        self._settle()

    # -- queries ----------------------------------------------------------------

    @property
    def items_seen(self) -> int:
        """Number of stream values accepted so far (the pending run included)."""
        return self._n

    @property
    def metrics(self) -> Optional[SummaryMetrics]:
        """Instrumentation facade, or ``None`` when not instrumented."""
        return self._metrics

    @property
    def alive_levels(self) -> list[float]:
        """Target errors whose summaries still fit in ``B`` buckets."""
        return [s.target_error for s in self._summaries]

    def best_summary(self) -> GreedyInsertSummary:
        """The surviving summary with the smallest target error."""
        self.flush()
        if self._n == 0:
            raise EmptySummaryError("no values inserted yet")
        return self._summaries[0]

    def histogram(self) -> Histogram:
        """The (1 + eps, 1)-approximate histogram (Section 2.2.1)."""
        return self.best_summary().histogram()

    @property
    def error(self) -> float:
        """Actual error of the answer histogram."""
        return self.best_summary().error

    def buckets_for_error(self, error: float) -> tuple[int, Optional[int]]:
        """Dual query (Section 2.2's dual problem): buckets needed for ``error``.

        Returns ``(lower, upper)`` bounds on the minimum number of buckets
        that approximate the stream so far within ``error``:

        * ``lower`` comes from the smallest surviving ladder level with
          target >= ``error`` (a more generous budget needs fewer or equal
          buckets, so its count bounds from below);
        * ``upper`` comes from the largest surviving level with target
          <= ``error`` (its partition is feasible for ``error``), or
          ``None`` when every such level has been deleted -- then all the
          summary can certify is ``lower``.
        """
        if not error >= 0:  # NaN fails this too
            raise InvalidParameterError(f"error must be >= 0, got {error}")
        self.flush()
        if self._n == 0:
            raise EmptySummaryError("no values inserted yet")
        lower = 1
        upper: Optional[int] = None
        for summary in self._summaries:  # ascending targets
            if summary.target_error <= error:
                # Feasible at `error`; the largest such level is tightest.
                upper = summary.bucket_count
            else:
                # First level above `error`: its count can only be smaller
                # than the true answer -- and being the smallest level
                # above, it gives the tightest lower bound.
                lower = summary.bucket_count
                break
        # Monotonicity of the dual (count falls as the budget grows)
        # guarantees lower <= upper whenever both exist.
        return lower, upper

    def memory_bytes(self) -> int:
        """Accounted memory: surviving summaries and ladder entries."""
        total = sum(s.memory_bytes() for s in self._summaries)
        return total + self._model.ladder_entries(len(self._summaries))

    # -- internals -----------------------------------------------------------------

    def _check_domain(self, value) -> None:
        if not 0 <= value < self.universe:
            raise DomainError(
                f"value {value!r} outside universe [0, {self.universe})"
            )

    def _step(self, value) -> None:
        """The exact step for one value the certificate does not cover.

        Writes the pending run out, runs GREEDY-INSERT's step for
        ``value`` on every level, drops the levels that outgrew ``B``
        buckets and re-arms the certificate around the new open buckets.
        """
        self._settle()
        levels = self._summaries
        observe = self._metrics is not None
        best = levels[0]
        best_buckets = best.bucket_count if observe else 0
        top = levels[-1]
        limit = self.target_buckets
        survivors = []
        for summary in levels:
            open_ = summary.open
            index = summary._next_index
            summary._next_index = index + 1
            if open_ is not None:
                lo = value if value < open_.min else open_.min
                hi = value if value > open_.max else open_.max
                if (hi - lo) / 2.0 <= summary.target_error:
                    open_.end = index
                    open_.min = lo
                    open_.max = hi
                    survivors.append(summary)
                    continue
                summary.closed.append(open_)
            summary.open = Bucket(index, index, value, value)
            if len(summary.closed) < limit or summary is top:
                survivors.append(summary)
        self._summaries = survivors
        if observe:
            if len(survivors) < len(levels):
                self._metrics.on_promotion(len(levels) - len(survivors))
            if survivors[0] is best and best.bucket_count == best_buckets:
                self._metrics.on_merge()
        self._lo = self._hi = value
        self._arm()

    def _settle(self) -> None:
        """Write the pending run into every open bucket.

        The run's extremes and the certificate are kept: the caps were
        armed against the open buckets as they were before the run, and
        resetting the extremes here would let a later value through on
        bounds the buckets no longer have.
        """
        count = self._run
        if count:
            lo, hi = self._lo, self._hi
            for summary in self._summaries:
                open_ = summary.open
                open_.end += count
                if lo < open_.min:
                    open_.min = lo
                if hi > open_.max:
                    open_.max = hi
                summary._next_index += count
            self._run = 0

    def _arm(self) -> None:
        """Compute the caps from the open buckets, or disarm.

        Requires the run's extremes ``[_lo, _hi]`` to lie in every open
        bucket.  ``_cap_hi`` is the least, over the levels, of the largest
        float a value may reach without breaking that level's half-range
        test against its open minimum; ``_cap_lo`` mirrors it on the open
        maximum; ``_span`` is the finest target, which bounds a run that
        moves both extremes.  A level that no in-domain value can break on
        one side sets no cap there; the coarsest level (target at least
        ``U / 2``) sets none at all.  Each cap is first estimated in plain
        float arithmetic, and only the levels whose estimate is within
        rounding of the extreme one get the exact search.
        """
        lo, hi = self._lo, self._hi
        if not (
            self._exact
            and lo <= hi
            and type(lo) in _EXACT_TYPES
            and type(hi) in _EXACT_TYPES
        ):
            self._disarm()
            return
        top = float(self.universe)
        # An estimate lies within ``slack`` of its exact cap, so only the
        # levels whose estimate is within ``2 * slack`` of the extreme
        # estimate can hold the extreme cap.
        slack = 16.0 * math.ulp(top)
        near = 2.0 * slack
        uppers = []
        lowers = []
        least = _INF
        most = -_INF
        for summary in self._summaries[:-1]:
            open_ = summary.open
            omin, omax = open_.min, open_.max
            if type(omin) not in _EXACT_TYPES or type(omax) not in _EXACT_TYPES:
                self._disarm()
                return
            e = summary.target_error
            if (top - omin) / 2.0 > e:
                u = omin + 2.0 * e
                if u <= least + near:
                    uppers.append((u, omin, e))
                    if u < least:
                        least = u
            if omax / 2.0 > e:
                v = omax - 2.0 * e
                if v >= most - near:
                    lowers.append((v, omax, e))
                    if v > most:
                        most = v
        cap_hi = _INF
        for u, omin, e in uppers:
            if u <= least + near:
                u = _cap(omin, e, slack, top)
                if u < cap_hi:
                    cap_hi = u
        cap_lo = -_INF
        for v, omax, e in lowers:
            if v >= most - near:
                v = -_cap(-omax, e, slack, 0.0)
                if v > cap_lo:
                    cap_lo = v
        self._cap_lo, self._cap_hi = cap_lo, cap_hi
        self._span = self._summaries[0].target_error

    def _disarm(self) -> None:
        """Certify nothing: every value takes the exact step until re-armed."""
        self._settle()
        self._lo, self._hi = _INF, -_INF
        self._cap_lo, self._cap_hi = _INF, -_INF
        self._span = -_INF
