"""Tests for MIN-MERGE: Theorem 1's (1, 2) guarantee and its invariants."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.min_merge import MinMergeHistogram
from repro.exceptions import EmptySummaryError, InvalidParameterError
from repro.offline.optimal import optimal_error
from tests.min_merge_reference import MinMergeReference

streams = st.lists(st.integers(0, 1000), min_size=1, max_size=400)
small_buckets = st.integers(1, 8)


class TestConstruction:
    def test_invalid_buckets(self):
        with pytest.raises(InvalidParameterError):
            MinMergeHistogram(buckets=0)

    def test_invalid_working_buckets(self):
        with pytest.raises(InvalidParameterError):
            MinMergeHistogram(buckets=4, working_buckets=0)

    def test_default_working_buckets_is_double(self):
        summary = MinMergeHistogram(buckets=5)
        assert summary.working_buckets == 10

    def test_empty_summary_raises(self):
        summary = MinMergeHistogram(buckets=2)
        with pytest.raises(EmptySummaryError):
            summary.histogram()
        with pytest.raises(EmptySummaryError):
            _ = summary.error


class TestBasicBehaviour:
    def test_few_items_kept_exactly(self):
        summary = MinMergeHistogram(buckets=4)
        summary.extend([5, 1, 9])
        assert summary.bucket_count == 3
        assert summary.error == 0.0
        hist = summary.histogram()
        assert hist.reconstruct() == [5.0, 1.0, 9.0]

    def test_bucket_budget_never_exceeded(self):
        summary = MinMergeHistogram(buckets=3)
        for i in range(100):
            summary.insert(i % 17)
            assert summary.bucket_count <= 6

    def test_piecewise_constant_stream_is_lossless(self):
        # 4 plateaus, 2 target buckets -> 4 working buckets suffice for
        # error 0.
        stream = [10] * 25 + [20] * 25 + [5] * 25 + [30] * 25
        summary = MinMergeHistogram(buckets=2)
        summary.extend(stream)
        assert summary.error == 0.0

    def test_items_seen(self):
        summary = MinMergeHistogram(buckets=2)
        summary.extend(range(10))
        assert summary.items_seen == 10

    def test_buckets_snapshot_is_a_copy(self):
        summary = MinMergeHistogram(buckets=2)
        summary.extend([1, 2, 3])
        snap = summary.buckets_snapshot()
        snap[0].extend(99)
        assert summary.buckets_snapshot()[0].end == 0

    def test_histogram_covers_whole_stream(self):
        summary = MinMergeHistogram(buckets=3)
        summary.extend(range(50))
        hist = summary.histogram()
        assert hist.beg == 0
        assert hist.end == 49


class TestGuarantee:
    @given(streams, small_buckets)
    def test_error_at_most_optimal_b(self, values, buckets):
        """Theorem 1: err(MIN-MERGE with 2B) <= err(OPT with B)."""
        summary = MinMergeHistogram(buckets=buckets)
        summary.extend(values)
        assert summary.error <= optimal_error(values, buckets) + 1e-12

    @given(streams, small_buckets)
    def test_error_sandwiched_between_optima(self, values, buckets):
        """err(OPT_2B) <= err(MIN-MERGE with 2B) <= err(OPT_B).

        The upper bound is Theorem 1; the lower bound is trivial (the
        summary IS a 2B-bucket histogram) but pins the implementation: a
        summary reporting below the 2B optimum would be lying.
        """
        summary = MinMergeHistogram(buckets=buckets)
        summary.extend(values)
        assert summary.error >= optimal_error(values, 2 * buckets) - 1e-12
        assert summary.error <= optimal_error(values, buckets) + 1e-12

    @given(streams, small_buckets)
    def test_min_merge_property_invariant(self, values, buckets):
        """The Lemma 1 invariant holds after the full stream."""
        summary = MinMergeHistogram(buckets=buckets)
        summary.extend(values)
        summary.check_min_merge_property()

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=120))
    def test_invariants_hold_after_every_insert(self, values):
        summary = MinMergeHistogram(buckets=2)
        for v in values:
            summary.insert(v)
            summary.check_min_merge_property()
            summary._soa.check_consistency()

    @given(streams)
    def test_reported_error_matches_measured(self, values):
        summary = MinMergeHistogram(buckets=4)
        summary.extend(values)
        hist = summary.histogram()
        assert hist.max_error_against(values) == pytest.approx(hist.error)

    def test_worst_case_adversarial_alternation(self):
        # Alternating extremes are incompressible: any bucket of >= 2 items
        # has error 500.  MIN-MERGE must still respect the bound.
        values = [0, 1000] * 100
        summary = MinMergeHistogram(buckets=4)
        summary.extend(values)
        assert summary.error <= optimal_error(values, 4)


class TestMemory:
    def test_memory_bounded_by_working_buckets(self):
        summary = MinMergeHistogram(buckets=8)
        baseline = None
        for i in range(5000):
            summary.insert(i % 997)
            if i == 100:
                baseline = summary.memory_bytes()
        # Memory at the end equals memory right after filling: O(B), not O(n).
        assert summary.memory_bytes() == baseline

    def test_memory_scales_linearly_in_buckets(self):
        small = MinMergeHistogram(buckets=8)
        large = MinMergeHistogram(buckets=32)
        stream = list(range(2000))
        small.extend(stream)
        large.extend(stream)
        ratio = large.memory_bytes() / small.memory_bytes()
        assert 3.0 < ratio < 5.0  # ~4x for 4x the buckets

    def test_memory_accounts_buckets_and_heap(self):
        summary = MinMergeHistogram(buckets=2)
        summary.extend(range(10))  # full: 4 buckets, 3 heap keys
        expected = 4 * 4 * 4 + 3 * 2 * 4
        assert summary.memory_bytes() == expected


class TestLinearFindmin:
    """Footnote 4's linear-scan FINDMIN, kept as a test oracle."""

    @given(st.lists(st.integers(0, 500), min_size=1, max_size=200), small_buckets)
    def test_linear_matches_heap_error(self, values, buckets):
        """Same algorithm, different FINDMIN: identical errors and buckets.

        Both FINDMINs pick the leftmost cheapest pair, so the linear scan,
        the addressable heap and the production lazy heap agree exactly.
        """
        heap = MinMergeReference(buckets)
        linear = MinMergeReference(buckets, findmin="linear")
        summary = MinMergeHistogram(buckets=buckets)
        heap.extend(values)
        linear.extend(values)
        summary.extend(values)
        assert linear.error == heap.error == summary.error
        assert linear.state_dict() == heap.state_dict()
        assert [repr(b) for b in summary.buckets_snapshot()] == [
            repr(b) for b in linear.buckets_snapshot()
        ]
        linear.check_heap_consistency()
        heap.check_heap_consistency()
        assert summary.error <= optimal_error(values, buckets)

    def test_linear_mode_uses_no_heap_memory(self):
        heap = MinMergeReference(4)
        linear = MinMergeReference(4, findmin="linear")
        heap.extend(range(100))
        linear.extend(range(100))
        assert linear.memory_bytes() < heap.memory_bytes()


class TestWorkingBucketsOverride:
    def test_larger_budget_gives_no_worse_error(self):
        stream = [((i * 7919) % 523) for i in range(500)]
        tight = MinMergeHistogram(buckets=4, working_buckets=8)
        loose = MinMergeHistogram(buckets=4, working_buckets=16)
        tight.extend(stream)
        loose.extend(stream)
        assert loose.error <= tight.error

    def test_single_working_bucket_degenerates_to_global_range(self):
        summary = MinMergeHistogram(buckets=1, working_buckets=1)
        summary.extend([2, 10, 4])
        assert summary.bucket_count == 1
        assert summary.error == 4.0
