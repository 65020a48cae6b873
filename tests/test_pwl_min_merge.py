"""Tests for the PWL MIN-MERGE algorithm (Theorem 3)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pwl_min_merge import PwlMinMergeHistogram
from repro.exceptions import EmptySummaryError, InvalidParameterError
from repro.offline.optimal_pwl import optimal_pwl_error

streams = st.lists(st.integers(0, 200), min_size=1, max_size=120)


class TestConstruction:
    def test_invalid_buckets(self):
        with pytest.raises(InvalidParameterError):
            PwlMinMergeHistogram(buckets=0)

    def test_empty_raises(self):
        summary = PwlMinMergeHistogram(buckets=2)
        with pytest.raises(EmptySummaryError):
            summary.histogram()


class TestBasicBehaviour:
    def test_linear_stream_is_lossless(self):
        summary = PwlMinMergeHistogram(buckets=1, hull_epsilon=None)
        summary.extend([3 * i + 1 for i in range(100)])
        assert summary.error == pytest.approx(0.0, abs=1e-9)

    def test_two_trends_two_buckets(self):
        stream = [2 * i for i in range(50)] + [100 - 3 * i for i in range(50)]
        summary = PwlMinMergeHistogram(buckets=1, hull_epsilon=None)
        summary.extend(stream)
        assert summary.error == pytest.approx(0.0, abs=1e-9)

    def test_bucket_budget_never_exceeded(self):
        summary = PwlMinMergeHistogram(buckets=3)
        for i in range(200):
            summary.insert((i * 37) % 101)
            assert summary.bucket_count <= 6

    def test_histogram_reconstruction_error(self):
        stream = [((i * 17) % 43) for i in range(150)]
        summary = PwlMinMergeHistogram(buckets=4, hull_epsilon=None)
        summary.extend(stream)
        hist = summary.histogram()
        assert hist.max_error_against(stream) <= summary.error + 1e-9


class TestGuarantee:
    @settings(max_examples=25)
    @given(streams, st.integers(1, 4))
    def test_exact_hull_gives_1_2_approximation(self, values, buckets):
        """With exact hulls, error <= the optimal B-bucket PWL error."""
        summary = PwlMinMergeHistogram(buckets=buckets, hull_epsilon=None)
        summary.extend(values)
        best = optimal_pwl_error(values, buckets, tol=1e-4)
        assert summary.error <= best + 1e-3

    @settings(max_examples=15)
    @given(streams)
    def test_capped_hull_within_slack(self, values):
        """With eps-kernels the bound relaxes by 1/(1 - eps) (Thm 3)."""
        epsilon = 0.1
        summary = PwlMinMergeHistogram(buckets=3, hull_epsilon=epsilon)
        summary.extend(values)
        best = optimal_pwl_error(values, 3, tol=1e-4)
        assert summary.error <= best / (1.0 - epsilon) + 1e-3

    @settings(max_examples=20)
    @given(streams)
    def test_min_merge_property(self, values):
        summary = PwlMinMergeHistogram(buckets=2, hull_epsilon=None)
        summary.extend(values)
        summary.check_min_merge_property()


class TestMemory:
    def test_memory_bounded_on_adversarial_convex_stream(self):
        # Convex data maximizes hull sizes; the kernel caps every bucket's
        # hull at its compression threshold (chain entries of 2 words each).
        summary = PwlMinMergeHistogram(buckets=4, hull_epsilon=0.2)
        for i in range(2000):
            summary.insert(i * i % 100_000)
        for bucket in summary.buckets_snapshot():
            hull = bucket.hull
            assert hull.stored_entries <= hull._threshold
        per_bucket_cap = 8 * (2 * (2 * 16 + 4)) + 8  # entries x 8B + header
        heap_bytes = 8 * summary.bucket_count
        assert summary.memory_bytes() <= (
            summary.bucket_count * per_bucket_cap + heap_bytes
        )

    def test_exact_hull_memory_can_grow(self):
        capped = PwlMinMergeHistogram(buckets=4, hull_epsilon=0.2)
        exact = PwlMinMergeHistogram(buckets=4, hull_epsilon=None)
        for i in range(1000):
            capped.insert(i * i % 65536)
            exact.insert(i * i % 65536)
        assert capped.memory_bytes() <= exact.memory_bytes()
