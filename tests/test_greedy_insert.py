"""Tests for GREEDY-INSERT: Lemma 2's exact dual optimality."""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.greedy_insert import GreedyInsertSummary, greedy_bucket_count
from repro.exceptions import EmptySummaryError, InvalidParameterError


def brute_force_min_buckets(values: tuple, error: float) -> int:
    """Exponential-ish reference: DP over split positions."""

    @lru_cache(maxsize=None)
    def solve(start: int) -> int:
        if start == len(values):
            return 0
        best = len(values)
        lo = hi = values[start]
        for end in range(start, len(values)):
            v = values[end]
            lo = v if v < lo else lo
            hi = v if v > hi else hi
            if (hi - lo) / 2.0 > error:
                break
            best = min(best, 1 + solve(end + 1))
        return best

    return solve(0)


class TestConstruction:
    def test_negative_error_raises(self):
        with pytest.raises(InvalidParameterError):
            GreedyInsertSummary(-0.5)

    def test_empty_summary(self):
        summary = GreedyInsertSummary(1.0)
        assert summary.bucket_count == 0
        with pytest.raises(EmptySummaryError):
            _ = summary.error
        with pytest.raises(EmptySummaryError):
            summary.histogram()


class TestGreedyBehaviour:
    def test_zero_error_splits_on_any_change(self):
        summary = GreedyInsertSummary(0.0)
        summary.extend([1, 1, 2, 2, 2, 3])
        assert summary.bucket_count == 3
        assert summary.error == 0.0

    def test_large_error_single_bucket(self):
        summary = GreedyInsertSummary(1000.0)
        summary.extend([1, 500, 999])
        assert summary.bucket_count == 1

    def test_bucket_boundaries(self):
        summary = GreedyInsertSummary(1.0)
        summary.extend([0, 1, 2, 10, 11, 12])
        buckets = summary.buckets_snapshot()
        assert [(b.beg, b.end) for b in buckets] == [(0, 2), (3, 5)]

    def test_error_never_exceeds_target(self):
        summary = GreedyInsertSummary(5.0)
        summary.extend([((i * 31) % 97) for i in range(200)])
        assert summary.error <= 5.0
        for bucket in summary.buckets_snapshot():
            assert bucket.error <= 5.0

    def test_histogram_roundtrip(self):
        summary = GreedyInsertSummary(2.0)
        values = [0, 1, 2, 3, 9, 9, 8, 20]
        summary.extend(values)
        hist = summary.histogram()
        assert hist.max_error_against(values) <= 2.0

    def test_start_index_offsets_buckets(self):
        summary = GreedyInsertSummary(0.0, start_index=100)
        summary.extend([5, 5, 7])
        buckets = summary.buckets_snapshot()
        assert buckets[0].beg == 100
        assert buckets[-1].end == 102


class TestOptimality:
    @given(
        st.lists(st.integers(0, 30), min_size=1, max_size=40),
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0, 10.0]),
    )
    def test_matches_brute_force_minimum(self, values, error):
        """Lemma 2: greedy bucket count is the exact minimum."""
        assert greedy_bucket_count(values, error) == brute_force_min_buckets(
            tuple(values), error
        )

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=200))
    def test_monotone_in_error(self, values):
        counts = [
            greedy_bucket_count(values, e) for e in (0.0, 1.0, 5.0, 25.0, 50.0)
        ]
        assert counts == sorted(counts, reverse=True)


class TestBatchPath:
    """Batch ``extend()``: vectorized run absorption, scalar fallback."""

    @given(
        st.lists(st.integers(0, 100), min_size=1, max_size=150),
        st.integers(1, 10),
        st.sampled_from([0.0, 1.0, 4.0, 16.0]),
    )
    def test_batched_equals_per_item(self, values, batch, error):
        """Chunked extend() lands in exactly the same state as insert."""
        reference = GreedyInsertSummary(error)
        for value in values:
            reference.insert(value)
        batched = GreedyInsertSummary(error)
        for i in range(0, len(values), batch):
            batched.extend(values[i:i + batch])
        assert batched.buckets_snapshot() == reference.buckets_snapshot()

    def test_case1_fast_path_taken(self):
        # The whole batch fits the open bucket.
        summary = GreedyInsertSummary(10.0)
        summary.insert(5)
        summary.extend([6, 7, 8])
        assert summary.bucket_count == 1
        assert summary.items_seen == 4

    def test_case2_falls_back_to_scan(self):
        summary = GreedyInsertSummary(1.0)
        summary.insert(5)
        summary.extend([50, 51, 90])
        assert summary.bucket_count == 3

    def test_empty_batch_is_noop(self):
        summary = GreedyInsertSummary(1.0)
        summary.insert(5)
        summary.extend([])
        assert summary.bucket_count == 1
        assert summary.items_seen == 1

    def test_batch_into_empty_summary(self):
        summary = GreedyInsertSummary(5.0)
        summary.extend([1, 2, 3])
        buckets = summary.buckets_snapshot()
        assert (buckets[0].beg, buckets[0].end) == (0, 2)


class TestMemory:
    def test_memory_counts_closed_and_open(self):
        summary = GreedyInsertSummary(0.0)
        summary.extend([1, 2, 3])  # two closed + one open
        assert summary.memory_bytes() == 2 * 4 * 4 + 3 * 4
