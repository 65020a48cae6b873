"""Stress tests: paper-scale streams through the core summaries.

Marked slow; they validate the O(B) / O(eps^-1 B log U) space claims at
the million-item scale of the paper's Brownian dataset and exercise the
amortized paths (heap churn, ladder deletions, hull compression) far past
what the property tests reach.
"""

from __future__ import annotations

import pytest

from repro.core.min_increment import MinIncrementHistogram
from repro.core.min_merge import MinMergeHistogram
from repro.core.pwl_min_merge import PwlMinMergeHistogram
from repro.core.sliding_window import SlidingWindowMinIncrement
from repro.data import brownian

pytestmark = pytest.mark.slow

UNIVERSE = 1 << 15


@pytest.fixture(scope="module")
def million_walk():
    return brownian(1_000_000)


class TestMillionItems:
    def test_min_merge_flat_memory_at_scale(self, million_walk):
        summary = MinMergeHistogram(buckets=32)
        summary.extend(million_walk)
        assert summary.items_seen == 1_000_000
        assert summary.memory_bytes() == 1528  # exactly B-determined
        summary._soa.check_consistency()
        summary.check_min_merge_property()
        hist = summary.histogram()
        assert hist.coverage == 1_000_000

    def test_min_increment_batched_at_scale(self, million_walk):
        # One batch extend() of the whole walk.
        summary = MinIncrementHistogram(buckets=32, epsilon=0.2, universe=UNIVERSE)
        summary.extend(million_walk)
        summary.flush()
        assert summary.items_seen == 1_000_000
        # Theta(eps^-1 B log U) worst case is ~30 KB; live usage far less.
        assert summary.memory_bytes() < 40_000
        assert len(summary.histogram()) <= 32

    def test_sliding_window_at_scale(self, million_walk):
        summary = SlidingWindowMinIncrement(
            buckets=16, epsilon=0.3, universe=UNIVERSE, window=10_000
        )
        summary.extend(million_walk[:200_000])
        hist = summary.histogram()
        assert hist.beg == 190_000
        assert hist.end == 199_999
        assert len(hist) <= 17
        assert summary.memory_bytes() < 20_000

    def test_pwl_min_merge_capped_at_scale(self, million_walk):
        summary = PwlMinMergeHistogram(buckets=16, hull_epsilon=0.2)
        summary.extend(million_walk[:100_000])
        assert summary.bucket_count <= 32
        for bucket in summary.buckets_snapshot():
            assert bucket.hull.stored_entries <= bucket.hull._threshold
