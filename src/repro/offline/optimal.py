"""Exact offline optimal L-infinity histograms (the OPTIMAL baseline).

Section 4.2 / Theorem 6 observe that GREEDY-INSERT turns the offline
problem into a one-dimensional search: the minimum number of buckets needed
for a target error ``e`` is computed by one greedy O(n) scan, it is
monotone non-increasing in ``e``, and for integer-valued streams every
achievable error is a half-integer in ``[0, (max - min) / 2]``.  Binary
searching that grid therefore finds the *exact* optimum with O(log U)
greedy passes -- ``O(n log U)`` total, the near-linear bound of Theorem 6
-- and O(n) space (the input itself).

For non-integer data the grid argument fails; :func:`optimal_error` then
falls back to a real-valued binary search over the hull of candidate
half-range values (all achievable errors are of the form
``(max_I - min_I) / 2`` over intervals ``I``), which is still exact because
the feasibility predicate is a step function jumping only at candidates --
we shrink the bracket until it contains a single candidate, identified with
one extra scan.

``optimal_error_dp`` is the classic O(n^2 B) interval dynamic program of
Jagadish et al. [17]; it exists as the independently-coded reference the
test suite cross-validates against.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.histogram import Histogram, Segment
from repro.exceptions import InvalidParameterError


def min_buckets_for_error(values: Sequence, error: float) -> int:
    """Minimum buckets covering ``values`` within half-range ``error``.

    One greedy left-to-right scan (Lemma 2 proves greedy is optimal).
    Returns 0 for an empty sequence.
    """
    if not error >= 0:
        raise InvalidParameterError(f"error must be >= 0, got {error}")
    n = len(values)
    if n == 0:
        return 0
    threshold = 2.0 * error  # compare ranges, avoiding repeated division
    count = 1
    lo = hi = values[0]
    for i in range(1, n):
        v = values[i]
        new_lo = v if v < lo else lo
        new_hi = v if v > hi else hi
        if new_hi - new_lo > threshold:
            count += 1
            lo = hi = v
        else:
            lo, hi = new_lo, new_hi
    return count


def optimal_error(values: Sequence, buckets: int) -> float:
    """Error of the optimal ``buckets``-bucket L-infinity histogram.

    Exact.  Integer-valued inputs use the half-integer grid (Theorem 6);
    other inputs use the candidate-bracketing search described in the
    module docs.
    """
    _validate(values, buckets)
    if buckets >= len(values):
        return 0.0
    hi = (max(values) - min(values)) / 2.0
    if hi == 0.0:
        return 0.0
    if all(float(v).is_integer() for v in values):
        return _grid_search(values, buckets, hi)
    return _candidate_search(values, buckets, hi)


def optimal_histogram(values: Sequence, buckets: int) -> Histogram:
    """The optimal ``buckets``-bucket histogram itself.

    Built by running the greedy partition at the optimal error; by Lemma 2
    it uses at most ``buckets`` buckets, and its realized error equals the
    optimum.
    """
    _validate(values, buckets)
    target = optimal_error(values, buckets)
    threshold = 2.0 * target
    segments: list[Segment] = []
    worst = 0.0
    beg = 0
    lo = hi = values[0]
    for i in range(1, len(values)):
        v = values[i]
        new_lo = v if v < lo else lo
        new_hi = v if v > hi else hi
        if new_hi - new_lo > threshold:
            rep = (lo + hi) / 2.0
            segments.append(Segment(beg, i - 1, rep, rep))
            if (hi - lo) / 2.0 > worst:
                worst = (hi - lo) / 2.0
            beg = i
            lo = hi = v
        else:
            lo, hi = new_lo, new_hi
    rep = (lo + hi) / 2.0
    segments.append(Segment(beg, len(values) - 1, rep, rep))
    if (hi - lo) / 2.0 > worst:
        worst = (hi - lo) / 2.0
    return Histogram(segments, worst)


def optimal_error_dp(values: Sequence, buckets: int) -> float:
    """Reference O(n^2 B) dynamic program (Jagadish et al. [17]).

    ``E[k][j]`` = optimal error of the length-``j`` prefix with ``k``
    buckets; transition splits off the last bucket.  Interval errors come
    from running min/max while the split point walks left.  Only suitable
    for small ``n`` -- the tests use it to validate :func:`optimal_error`.
    """
    _validate(values, buckets)
    n = len(values)
    if buckets >= n:
        return 0.0
    inf = float("inf")
    # prev[j] = optimal error of prefix of length j with (k-1) buckets.
    prev = [inf] * (n + 1)
    prev[0] = 0.0
    # One bucket: prefix error is the running half-range.
    lo = hi = values[0]
    prev[1] = 0.0
    for j in range(2, n + 1):
        v = values[j - 1]
        lo = v if v < lo else lo
        hi = v if v > hi else hi
        prev[j] = (hi - lo) / 2.0
    for _k in range(2, buckets + 1):
        cur = [inf] * (n + 1)
        cur[0] = 0.0
        for j in range(1, n + 1):
            best = inf
            lo = hi = values[j - 1]
            # Last bucket covers values[i..j-1]; walk i from j-1 down to 0.
            for i in range(j - 1, -1, -1):
                v = values[i]
                lo = v if v < lo else lo
                hi = v if v > hi else hi
                if prev[i] is not inf:
                    candidate = prev[i]
                    interval = (hi - lo) / 2.0
                    if interval > candidate:
                        candidate = interval
                    if candidate < best:
                        best = candidate
                if (hi - lo) / 2.0 >= best:
                    # Interval error only grows leftwards; no better split.
                    break
            cur[j] = best
        prev = cur
    return prev[n]


# -- internals -----------------------------------------------------------------


def _validate(values: Sequence, buckets: int) -> None:
    if buckets < 1:
        raise InvalidParameterError(f"buckets must be >= 1, got {buckets}")
    if len(values) == 0:
        raise InvalidParameterError("cannot build a histogram of no values")


def _grid_search(values: Sequence, buckets: int, hi: float) -> float:
    """Binary search over the half-integer error grid (integer inputs)."""
    # Work in units of 1/2: achievable errors are k / 2 for integer k.
    lo_steps = 0
    hi_steps = int(round(hi * 2))
    while lo_steps < hi_steps:
        mid = (lo_steps + hi_steps) // 2
        if min_buckets_for_error(values, mid / 2.0) <= buckets:
            hi_steps = mid
        else:
            lo_steps = mid + 1
    return lo_steps / 2.0


def _candidate_search(values: Sequence, buckets: int, hi: float) -> float:
    """Real-valued bracketing for non-integer inputs (still exact).

    Shrinks a feasible/infeasible bracket by bisection, then snaps the
    feasible end down to the largest *achievable* error not above it --
    the realized error of the greedy partition at that level -- which is
    the optimum once the bracket is tighter than the candidate spacing.
    """
    lo, high = 0.0, hi
    if min_buckets_for_error(values, 0.0) <= buckets:
        return 0.0
    for _ in range(128):  # ~2^-128 relative bracket; far below float ulp
        mid = (lo + high) / 2.0
        if mid == lo or mid == high:
            break
        if min_buckets_for_error(values, mid) <= buckets:
            high = mid
        else:
            lo = mid
    return _realized_greedy_error(values, high)


def _realized_greedy_error(values: Sequence, error: float) -> float:
    """Actual max bucket half-range of the greedy partition at ``error``."""
    threshold = 2.0 * error
    worst = 0.0
    lo = hi = values[0]
    for i in range(1, len(values)):
        v = values[i]
        new_lo = v if v < lo else lo
        new_hi = v if v > hi else hi
        if new_hi - new_lo > threshold:
            if (hi - lo) / 2.0 > worst:
                worst = (hi - lo) / 2.0
            lo = hi = v
        else:
            lo, hi = new_lo, new_hi
    if (hi - lo) / 2.0 > worst:
        worst = (hi - lo) / 2.0
    return worst
