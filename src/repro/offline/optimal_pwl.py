"""Offline (near-)optimal piecewise-linear histograms.

An extension beyond the paper's explicit pseudo-code: the GREEDY-INSERT
duality works verbatim for PWL buckets because the bucket error (half the
hull's vertical width) is monotone under point insertion -- the hull only
grows.  So ``min_pwl_buckets_for_error`` is one greedy scan with an exact
streaming hull, and the optimal error for ``B`` buckets is found by binary
search.

PWL errors are not confined to a half-integer grid, so the search bisects
reals to a caller-chosen tolerance and then reports the *realized* error of
the greedy partition at the feasible bracket end; the result is feasible
(uses at most ``B`` buckets) and within ``tol`` of the true optimum.  The
benchmark of Figure 9 only needs the streaming PWL algorithms, but this
offline reference is what the tests validate them against.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.histogram import Histogram
from repro.core.pwl_bucket import PwlBucket
from repro.exceptions import InvalidParameterError


def min_pwl_buckets_for_error(values: Sequence, error: float) -> int:
    """Minimum PWL buckets covering ``values`` within line-fit ``error``."""
    if not error >= 0:
        raise InvalidParameterError(f"error must be >= 0, got {error}")
    n = len(values)
    if n == 0:
        return 0
    count = 1
    bucket = PwlBucket(0, values[0])
    for i in range(1, n):
        if not bucket.try_add(values[i], error):
            count += 1
            bucket = PwlBucket(i, values[i])
    return count


def optimal_pwl_error(
    values: Sequence, buckets: int, *, tol: float = 1e-6
) -> float:
    """Error of the (near-)optimal ``buckets``-bucket PWL histogram.

    The result ``e`` satisfies ``e_opt <= e <= e_opt + tol`` and is always
    *achievable* with at most ``buckets`` buckets.
    """
    _validate(values, buckets, tol)
    if buckets >= (len(values) + 1) // 2:
        # Two points always fit a line exactly, so ceil(n/2) buckets
        # suffice for zero error.
        return 0.0
    high = (max(values) - min(values)) / 2.0
    if high == 0.0 or min_pwl_buckets_for_error(values, 0.0) <= buckets:
        return 0.0
    lo = 0.0
    while high - lo > tol:
        mid = (lo + high) / 2.0
        if min_pwl_buckets_for_error(values, mid) <= buckets:
            high = mid
        else:
            lo = mid
    return _realized_pwl_error(values, high)


def optimal_pwl_histogram(
    values: Sequence, buckets: int, *, tol: float = 1e-6
) -> Histogram:
    """The (near-)optimal PWL histogram (greedy at the searched error)."""
    _validate(values, buckets, tol)
    target = optimal_pwl_error(values, buckets, tol=tol)
    segments = []
    worst = 0.0
    bucket = PwlBucket(0, values[0])
    for i in range(1, len(values)):
        if not bucket.try_add(values[i], target):
            segments.append(bucket.segment())
            if bucket.error > worst:
                worst = bucket.error
            bucket = PwlBucket(i, values[i])
    segments.append(bucket.segment())
    if bucket.error > worst:
        worst = bucket.error
    return Histogram(segments, worst)


def _realized_pwl_error(values: Sequence, error: float) -> float:
    """Max realized bucket error of the greedy PWL partition at ``error``."""
    worst = 0.0
    bucket = PwlBucket(0, values[0])
    for i in range(1, len(values)):
        if not bucket.try_add(values[i], error):
            if bucket.error > worst:
                worst = bucket.error
            bucket = PwlBucket(i, values[i])
    if bucket.error > worst:
        worst = bucket.error
    return worst


def _validate(values: Sequence, buckets: int, tol: float) -> None:
    if buckets < 1:
        raise InvalidParameterError(f"buckets must be >= 1, got {buckets}")
    if len(values) == 0:
        raise InvalidParameterError("cannot build a histogram of no values")
    if tol <= 0:
        raise InvalidParameterError(f"tol must be positive, got {tol}")
