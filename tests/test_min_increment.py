"""Tests for MIN-INCREMENT: Theorem 2's (1 + eps, 1) guarantee."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.min_increment import MinIncrementHistogram
from repro.exceptions import (
    DomainError,
    EmptySummaryError,
    InvalidParameterError,
)
from repro.offline.optimal import optimal_error

UNIVERSE = 1024
streams = st.lists(st.integers(0, UNIVERSE - 1), min_size=1, max_size=300)
epsilons = st.sampled_from([0.1, 0.2, 0.5])
bucket_counts = st.integers(1, 10)


class TestConstruction:
    def test_invalid_buckets(self):
        with pytest.raises(InvalidParameterError):
            MinIncrementHistogram(buckets=0, epsilon=0.2, universe=UNIVERSE)

    def test_invalid_epsilon(self):
        with pytest.raises(InvalidParameterError):
            MinIncrementHistogram(buckets=4, epsilon=1.5, universe=UNIVERSE)

    def test_empty_summary(self):
        summary = MinIncrementHistogram(buckets=4, epsilon=0.2, universe=UNIVERSE)
        with pytest.raises(EmptySummaryError):
            summary.histogram()


class TestDomainChecks:
    def test_value_below_domain(self):
        summary = MinIncrementHistogram(buckets=4, epsilon=0.2, universe=UNIVERSE)
        with pytest.raises(DomainError):
            summary.insert(-1)

    def test_value_at_universe_rejected(self):
        summary = MinIncrementHistogram(buckets=4, epsilon=0.2, universe=UNIVERSE)
        with pytest.raises(DomainError):
            summary.insert(UNIVERSE)

    def test_boundary_values_accepted(self):
        summary = MinIncrementHistogram(buckets=4, epsilon=0.2, universe=UNIVERSE)
        summary.insert(0)
        summary.insert(UNIVERSE - 1)
        assert summary.items_seen == 2


class TestGuarantee:
    @given(streams, bucket_counts, epsilons)
    def test_error_within_eps_of_optimal(self, values, buckets, epsilon):
        """Theorem 2: error <= (1 + eps) * optimal, with <= B buckets."""
        summary = MinIncrementHistogram(
            buckets=buckets, epsilon=epsilon, universe=UNIVERSE
        )
        summary.extend(values)
        hist = summary.histogram()
        best = optimal_error(values, buckets)
        assert len(hist) <= buckets
        assert hist.error <= (1.0 + epsilon) * best + 1e-9

    @given(streams)
    def test_reported_error_matches_measured(self, values):
        summary = MinIncrementHistogram(buckets=5, epsilon=0.2, universe=UNIVERSE)
        summary.extend(values)
        hist = summary.histogram()
        assert hist.max_error_against(values) == pytest.approx(hist.error)

    def test_half_integer_optimum_regression(self):
        # Regression: [0, 2, 3] with B = 2 has optimal error 0.5; without
        # the exact 0.5 ladder level the answer would be 1.0 (factor 2).
        summary = MinIncrementHistogram(buckets=2, epsilon=0.2, universe=16)
        summary.extend([0, 2, 3])
        assert summary.error == 0.5

    def test_constant_stream_exact(self):
        summary = MinIncrementHistogram(buckets=2, epsilon=0.2, universe=UNIVERSE)
        summary.extend([7] * 100)
        assert summary.error == 0.0
        assert len(summary.histogram()) == 1

    def test_piecewise_constant_exact_with_zero_level(self):
        stream = [10] * 40 + [500] * 40
        summary = MinIncrementHistogram(buckets=2, epsilon=0.2, universe=UNIVERSE)
        summary.extend(stream)
        assert summary.error == 0.0
        assert len(summary.histogram()) == 2

    def test_levels_die_monotonically(self):
        summary = MinIncrementHistogram(buckets=2, epsilon=0.2, universe=UNIVERSE)
        alive_counts = []
        for i in range(300):
            summary.insert((i * 37) % UNIVERSE)
            alive_counts.append(len(summary.alive_levels))
        assert alive_counts == sorted(alive_counts, reverse=True)
        # The coarsest level always survives.
        assert alive_counts[-1] >= 1

    def test_answer_uses_smallest_surviving_level(self):
        summary = MinIncrementHistogram(buckets=3, epsilon=0.2, universe=UNIVERSE)
        summary.extend([0, 100, 200, 300, 400, 500] * 10)
        best = summary.best_summary()
        assert best.target_error == min(summary.alive_levels)


class TestDualQuery:
    def test_empty_raises(self):
        summary = MinIncrementHistogram(buckets=4, epsilon=0.2, universe=UNIVERSE)
        with pytest.raises(EmptySummaryError):
            summary.buckets_for_error(1.0)

    def test_negative_error_rejected(self):
        summary = MinIncrementHistogram(buckets=4, epsilon=0.2, universe=UNIVERSE)
        summary.insert(1)
        with pytest.raises(InvalidParameterError):
            summary.buckets_for_error(-1.0)

    @pytest.mark.parametrize("error", [math.nan, -1, -math.inf])
    def test_nan_and_negative_errors_raise(self, error):
        summary = MinIncrementHistogram(buckets=4, epsilon=0.2, universe=UNIVERSE)
        summary.extend([5, 90, 7])
        with pytest.raises(InvalidParameterError):
            summary.buckets_for_error(error)

    def test_zero_and_infinite_errors_answer(self):
        summary = MinIncrementHistogram(buckets=4, epsilon=0.2, universe=UNIVERSE)
        summary.extend([5, 90, 7])
        assert summary.buckets_for_error(0.0) == (3, 3)
        # Every level's target is finite: the coarsest one answers.
        assert summary.buckets_for_error(math.inf) == (1, 1)

    def test_constant_stream_needs_one_bucket(self):
        summary = MinIncrementHistogram(buckets=4, epsilon=0.2, universe=UNIVERSE)
        summary.extend([5] * 50)
        lower, upper = summary.buckets_for_error(0.0)
        assert lower == upper == 1

    @given(streams, st.sampled_from([0.0, 0.5, 2.0, 10.0, 100.0]))
    def test_bounds_bracket_the_true_dual(self, values, error):
        from repro.offline.optimal import min_buckets_for_error

        summary = MinIncrementHistogram(buckets=8, epsilon=0.2, universe=UNIVERSE)
        summary.extend(values)
        lower, upper = summary.buckets_for_error(error)
        truth = min_buckets_for_error(values, error)
        assert lower <= truth
        if upper is not None:
            assert truth <= upper

    def test_upper_none_when_all_fine_levels_dead(self):
        # Uniform noise kills every fine level; asking for a tiny error
        # can only be answered with a lower bound.
        summary = MinIncrementHistogram(buckets=2, epsilon=0.2, universe=UNIVERSE)
        summary.extend([(i * 389) % UNIVERSE for i in range(500)])
        lower, upper = summary.buckets_for_error(0.0)
        assert upper is None
        assert lower >= 1


class TestBatching:
    """Batch ``extend()`` ingest and the pending run it leaves behind."""

    @given(streams, st.integers(1, 16))
    def test_batched_result_equals_unbuffered(self, values, batch_size):
        plain = MinIncrementHistogram(buckets=4, epsilon=0.2, universe=UNIVERSE)
        for value in values:
            plain.insert(value)
        batched = MinIncrementHistogram(buckets=4, epsilon=0.2, universe=UNIVERSE)
        for i in range(0, len(values), batch_size):
            batched.extend(values[i : i + batch_size])
        batched.flush()
        assert batched.alive_levels == plain.alive_levels
        assert batched.error == plain.error
        assert [
            (b.beg, b.end, b.min, b.max)
            for b in batched.best_summary().buckets_snapshot()
        ] == [
            (b.beg, b.end, b.min, b.max)
            for b in plain.best_summary().buckets_snapshot()
        ]

    def test_histogram_flushes_pending_buffer(self):
        summary = MinIncrementHistogram(buckets=4, epsilon=0.2, universe=UNIVERSE)
        summary.extend([3, 3, 3])  # the last two are only counted, in the run
        assert summary._run == 2
        hist = summary.histogram()  # implicit flush
        assert hist.end == 2

    def test_flush_is_idempotent(self):
        summary = MinIncrementHistogram(buckets=4, epsilon=0.2, universe=UNIVERSE)
        summary.extend([1, 2, 3])
        summary.flush()
        once = summary.best_summary().buckets_snapshot()
        summary.flush()
        assert summary.items_seen == 3
        assert summary.best_summary().buckets_snapshot() == once


class TestMemory:
    def test_memory_independent_of_stream_length(self):
        summary = MinIncrementHistogram(buckets=8, epsilon=0.2, universe=UNIVERSE)
        peak_early = 0
        for i in range(4000):
            summary.insert((i * 101) % UNIVERSE)
            if i == 500:
                peak_early = summary.memory_bytes()
        # Levels only die over time; memory can only shrink after warmup.
        assert summary.memory_bytes() <= peak_early

    def test_memory_scales_with_bucket_budget(self):
        # A random walk keeps intermediate ladder levels alive, so a larger
        # bucket budget genuinely stores more (uniform noise would collapse
        # every level for both budgets).
        import random

        walk = random.Random(9)
        value, stream = UNIVERSE // 2, []
        for _ in range(2000):
            value = min(UNIVERSE - 1, max(0, value + walk.randint(-8, 8)))
            stream.append(value)
        small = MinIncrementHistogram(buckets=4, epsilon=0.2, universe=UNIVERSE)
        large = MinIncrementHistogram(buckets=16, epsilon=0.2, universe=UNIVERSE)
        small.extend(stream)
        large.extend(stream)
        assert large.memory_bytes() > small.memory_bytes()
