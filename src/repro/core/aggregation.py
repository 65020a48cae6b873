"""In-network aggregation: merging MIN-MERGE summaries of stream segments.

The paper's sensor-network motivation has many nodes each summarizing its
own readings; an aggregation tree then needs to *combine* child summaries
into one summary of the concatenated stream without replaying raw data.
MIN-MERGE supports this exactly:

1. concatenate the children's bucket lists (adjacent index ranges);
2. repeatedly merge the cheapest adjacent pair until ``2B`` buckets remain.

**The (1, 2) guarantee survives.**  Successive min-merge keys are
non-decreasing (merging the minimum pair only raises the other keys), so
after reducing to ``2B`` buckets every remaining adjacent pair costs at
least the last merge ``e_last``.  Against the optimal ``B``-bucket
histogram of the *whole* concatenated stream: it leaves at least ``B + 1``
of our ``2B`` buckets unsplit, pigeonhole gives two adjacent unsplit
buckets inside one optimal bucket, so ``err(OPT) >= e_last``.  Each child
summary's own error is at most its segment's optimal ``B``-bucket error,
which is at most the whole stream's (a restriction of OPT covers the
segment within ``B`` buckets).  Hence

    err(merged) = max(err(children), e_last) <= err(OPT_B).

The same argument goes through for PWL summaries (hull union is the MERGE;
the bucket error is monotone under union), up to the usual approximate-hull
slack.  Property-tested in ``tests/test_aggregation.py`` over arbitrary
segment splits and merge-tree shapes.

**Observability.**  When any child is instrumented, the merged summary is
instrumented too and its counters start from the *sum* of the children's
lifecycle counters plus the merges the reduction itself performed, so
per-segment (or per-shard, see ``repro.parallel``) counts aggregate instead
of silently vanishing.  Latency timelines are process-local and are not
merged.  Pass ``metrics=`` explicitly to direct the merged summary's events
into a caller-owned registry.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.bucket import Bucket
from repro.core.min_merge import MinMergeHistogram
from repro.core.pwl_bucket import PwlBucket
from repro.core.pwl_min_merge import PwlMinMergeHistogram
from repro.exceptions import EmptySummaryError, InvalidParameterError
from repro.geometry.convex_hull import StreamingHull
from repro.geometry.kernel import ApproximateHull


def merge_min_merge_summaries(
    summaries: Sequence[MinMergeHistogram],
    *,
    buckets: Optional[int] = None,
    reindex: bool = False,
    metrics=None,
) -> MinMergeHistogram:
    """Combine MIN-MERGE summaries of consecutive stream segments.

    Parameters
    ----------
    summaries:
        Two or more summaries, in stream order.  By default their index
        ranges must be exactly contiguous (each child summarized its slice
        of a shared index space); with ``reindex=True`` each summary is
        shifted to follow its predecessor (children that each indexed from
        zero, the sensor-network case).
    buckets:
        Target ``B`` of the combined summary; defaults to the smallest
        ``B`` among the children.
    metrics:
        Instrumentation for the merged summary (``True``, a registry, or a
        facade; see ``docs/OBSERVABILITY.md``).  Defaults to instrumenting
        exactly when at least one child is instrumented; either way the
        children's counter totals are absorbed into the merged facade.

    Returns a fresh summary over the concatenation, satisfying the (1, 2)
    guarantee against the optimal ``B``-bucket histogram of the whole
    stream (see the module docs for the argument).  ``items_seen`` of the
    result is the *sum of the children's covered spans* -- the number of
    items the buckets actually represent -- even when the first child's
    index range starts past zero.
    """
    _validate_children(summaries)
    if buckets is None:
        buckets = min(s.target_buckets for s in summaries)
    merged = MinMergeHistogram(
        buckets=buckets,
        metrics=_combined_metrics_arg(summaries, metrics),
    )
    offset = 0
    expected_next = None
    covered = 0
    for child in summaries:
        child_buckets = child.buckets_snapshot()
        first = child_buckets[0].beg
        if reindex:
            offset = covered - first
        elif expected_next is not None and first != expected_next:
            raise InvalidParameterError(
                "summaries are not contiguous: expected next index "
                f"{expected_next}, got {first} (pass reindex=True for "
                "independently-indexed children)"
            )
        if offset:
            child_buckets = [
                Bucket(b.beg + offset, b.end + offset, b.min, b.max)
                for b in child_buckets
            ]
        span = child_buckets[-1].end - child_buckets[0].beg + 1
        merged.adopt_buckets(child_buckets, count=span)
        expected_next = child_buckets[-1].end + 1
        covered += span
    reduction_merges = merged.compact()
    _absorb_child_metrics(merged, summaries, reduction_merges)
    return merged


def merge_pwl_summaries(
    summaries: Sequence[PwlMinMergeHistogram],
    *,
    buckets: Optional[int] = None,
    reindex: bool = False,
    metrics=None,
) -> PwlMinMergeHistogram:
    """PWL analogue of :func:`merge_min_merge_summaries` (hull unions)."""
    _validate_children(summaries)
    if buckets is None:
        buckets = min(s.target_buckets for s in summaries)
    hull_epsilon = summaries[0].hull_epsilon
    merged = PwlMinMergeHistogram(
        buckets=buckets,
        hull_epsilon=hull_epsilon,
        metrics=_combined_metrics_arg(summaries, metrics),
    )
    offset = 0
    expected_next = None
    covered = 0
    for child in summaries:
        child_buckets = child.buckets_snapshot()
        first = child_buckets[0].beg
        if reindex:
            offset = covered - first
        elif expected_next is not None and first != expected_next:
            raise InvalidParameterError(
                "summaries are not contiguous: expected next index "
                f"{expected_next}, got {first} (pass reindex=True for "
                "independently-indexed children)"
            )
        # Always copy (even at offset 0): the merged summary mutates its
        # buckets' hulls, and PWL snapshots share hull state with the child.
        shifted = [_shift_pwl_bucket(b, offset) for b in child_buckets]
        span = shifted[-1].end - shifted[0].beg + 1
        merged.adopt_buckets(shifted, count=span)
        expected_next = shifted[-1].end + 1
        covered += span
    reduction_merges = merged.compact()
    _absorb_child_metrics(merged, summaries, reduction_merges)
    return merged


def _combined_metrics_arg(summaries: Sequence, metrics):
    """The ``metrics=`` argument for the merged summary's constructor."""
    if metrics is not None:
        return metrics
    if any(getattr(s, "metrics", None) is not None for s in summaries):
        return True
    return None


def _absorb_child_metrics(merged, summaries: Sequence, reduction_merges: int) -> None:
    """Fold instrumented children's counters into the merged facade."""
    facade = merged.metrics
    if facade is None:
        return
    for child in summaries:
        child_metrics = getattr(child, "metrics", None)
        if child_metrics is not None:
            facade.absorb_counters(child_metrics.counter_totals())
    if reduction_merges:
        facade.on_merge(reduction_merges)


def _validate_children(summaries: Sequence) -> None:
    if len(summaries) < 2:
        raise InvalidParameterError(
            f"need at least two summaries to merge, got {len(summaries)}"
        )
    for child in summaries:
        if child.items_seen == 0:
            raise EmptySummaryError("cannot merge an empty summary")


def _shift_pwl_bucket(bucket: PwlBucket, offset: int) -> PwlBucket:
    """Copy of ``bucket`` with all stream indices shifted by ``offset``."""
    shifted = object.__new__(PwlBucket)
    shifted.beg = bucket.beg + offset
    shifted.end = bucket.end + offset
    shifted.hull = _shift_hull(bucket.hull, offset)
    shifted._clear_fit()
    shifted._cached_error = bucket._cached_error
    return shifted


def _shift_hull(hull, offset: int):
    """Translate a hull along x (convexity is translation-invariant)."""
    if isinstance(hull, ApproximateHull):
        shifted = ApproximateHull(hull.epsilon)
        shifted._threshold = hull._threshold
        shifted._inner = _shift_streaming_hull(hull._inner, offset)
        return shifted
    return _shift_streaming_hull(hull, offset)


def _shift_streaming_hull(hull: StreamingHull, offset: int) -> StreamingHull:
    shifted = StreamingHull()
    shifted.lower = [(x + offset, y) for x, y in hull.lower]
    shifted.upper = [(x + offset, y) for x, y in hull.upper]
    shifted._count = hull.point_count
    return shifted
