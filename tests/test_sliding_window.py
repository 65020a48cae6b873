"""Tests for the sliding-window MIN-INCREMENT (Theorem 5, Lemmas 3-4)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.greedy_insert import GreedyInsertSummary
from repro.core.sliding_window import SlidingWindowMinIncrement, _evict
from repro.exceptions import (
    DomainError,
    EmptySummaryError,
    InvalidParameterError,
)
from repro.offline.optimal import min_buckets_for_error, optimal_error

UNIVERSE = 1024
streams = st.lists(st.integers(0, UNIVERSE - 1), min_size=1, max_size=250)


class TestConstruction:
    def test_invalid_window(self):
        with pytest.raises(InvalidParameterError):
            SlidingWindowMinIncrement(
                buckets=4, epsilon=0.2, universe=UNIVERSE, window=0
            )

    def test_invalid_buckets(self):
        with pytest.raises(InvalidParameterError):
            SlidingWindowMinIncrement(
                buckets=0, epsilon=0.2, universe=UNIVERSE, window=10
            )

    def test_empty_raises(self):
        summary = SlidingWindowMinIncrement(
            buckets=4, epsilon=0.2, universe=UNIVERSE, window=10
        )
        with pytest.raises(EmptySummaryError):
            summary.histogram()

    def test_domain_check(self):
        summary = SlidingWindowMinIncrement(
            buckets=4, epsilon=0.2, universe=UNIVERSE, window=10
        )
        with pytest.raises(DomainError):
            summary.insert(UNIVERSE)


class TestWindowSemantics:
    def test_window_start_tracks_stream(self):
        summary = SlidingWindowMinIncrement(
            buckets=4, epsilon=0.2, universe=UNIVERSE, window=5
        )
        for i in range(3):
            summary.insert(i)
        assert summary.window_start == 0
        for i in range(10):
            summary.insert(i)
        assert summary.window_start == 13 - 5

    def test_histogram_covers_exactly_the_window(self):
        summary = SlidingWindowMinIncrement(
            buckets=4, epsilon=0.2, universe=UNIVERSE, window=20
        )
        for i in range(100):
            summary.insert((i * 7) % UNIVERSE)
        hist = summary.histogram()
        assert hist.beg == 80
        assert hist.end == 99

    def test_old_values_do_not_constrain_window(self):
        # A wild prefix followed by a constant window: the histogram of the
        # window must be (near) exact despite the noisy past.
        summary = SlidingWindowMinIncrement(
            buckets=2, epsilon=0.2, universe=UNIVERSE, window=50
        )
        for i in range(200):
            summary.insert((i * 389) % UNIVERSE)
        for _ in range(50):
            summary.insert(77)
        hist = summary.histogram()
        assert hist.max_error_against([77] * 50) == 0.0


class TestGuarantee:
    @given(streams, st.integers(1, 6), st.integers(4, 64))
    def test_theorem5_guarantee(self, values, buckets, window):
        """(1 + eps, 1 + 1/B): <= B + 1 buckets, error <= (1+eps) * opt."""
        epsilon = 0.2
        summary = SlidingWindowMinIncrement(
            buckets=buckets, epsilon=epsilon, universe=UNIVERSE, window=window
        )
        summary.extend(values)
        hist = summary.histogram()
        tail = values[-window:]
        assert len(hist) <= buckets + 1
        best = optimal_error(tail, buckets)
        assert hist.max_error_against(tail) <= (1.0 + epsilon) * best + 1e-9

    @given(streams)
    def test_window_larger_than_stream_sees_everything(self, values):
        summary = SlidingWindowMinIncrement(
            buckets=4, epsilon=0.2, universe=UNIVERSE, window=10_000
        )
        summary.extend(values)
        hist = summary.histogram()
        assert hist.beg == 0
        assert hist.end == len(values) - 1


class TestLemma4:
    @given(
        st.lists(st.integers(0, 100), min_size=1, max_size=120),
        st.sampled_from([0.0, 1.0, 4.0, 10.0]),
        st.integers(4, 40),
    )
    def test_greedy_window_uses_at_most_opt_plus_one(self, values, error, window):
        """Lemma 4: windowed GREEDY-INSERT <= optimal(window, e) + 1 buckets."""
        summary = GreedyInsertSummary(error)
        for i, v in enumerate(values):
            summary.insert(v)
            # Expiry alone: a ``keep`` this large never trims.
            _evict(summary, max(0, i + 1 - window), keep=len(values))
        tail = values[-window:]
        optimal = min_buckets_for_error(tail, error)
        assert summary.bucket_count <= optimal + 1


class TestMemory:
    def test_memory_independent_of_window_size(self):
        """Theorem 5's headline: memory does not grow with w."""
        stream = [((i * 211) % UNIVERSE) for i in range(3000)]
        memories = []
        for window in (50, 200, 800, 2900):
            summary = SlidingWindowMinIncrement(
                buckets=8, epsilon=0.2, universe=UNIVERSE, window=window
            )
            summary.extend(stream)
            memories.append(summary.memory_bytes())
        # All within a small constant of each other -- no Theta(w) growth.
        assert max(memories) <= 2 * min(memories)

    def test_per_level_bucket_cap_enforced(self):
        summary = SlidingWindowMinIncrement(
            buckets=3, epsilon=0.2, universe=UNIVERSE, window=500
        )
        for i in range(2000):
            summary.insert((i * 389) % UNIVERSE)
            for level in summary._summaries:
                assert level.bucket_count <= summary.target_buckets + 1


class TestLemma3Demonstration:
    def test_exact_window_optimum_needs_window_memory(self):
        """The adversarial idea behind Lemma 3's Omega(w) lower bound.

        Two streams that agree on their last w - 1 values but differ at the
        start of the window have different optimal-B errors; any summary
        answering *exactly* must therefore distinguish all value choices at
        expiring positions -- which takes Omega(w) state.  We demonstrate
        the error gap the adversary exploits.
        """
        window = 8
        common_tail = [10, 10, 10, 10, 500, 500, 500]
        stream_a = [10] + common_tail  # window is two flat plateaus
        stream_b = [500] + common_tail  # window starts with a spike
        assert optimal_error(stream_a, 2) == 0.0
        assert optimal_error(stream_b, 2) > 0.0
        assert len(stream_a) == window
