"""Negative tests: the invariant checkers must catch real corruption.

The property suite leans on ``check_*`` helpers; if those silently passed
on broken state, the whole suite would be weaker than it looks.  Each test
here corrupts a structure deliberately and asserts the checker objects.
"""

from __future__ import annotations

from heapq import heapify

import pytest

from repro.baselines.gk_quantile import GKQuantileSketch
from repro.core.min_merge import MinMergeHistogram
from repro.geometry.convex_hull import StreamingHull
from repro.structures.heap import AddressableMinHeap
from repro.structures.monotone_stack import SuffixExtremaStack
from tests.min_merge_reference import MinMergeReference


class TestHeapChecker:
    def test_detects_order_violation(self):
        heap = AddressableMinHeap()
        heap.push(1)
        heap.push(2)
        heap._keys[0] = 99  # corrupt the root
        with pytest.raises(AssertionError):
            heap.check_invariant()

    def test_detects_handle_map_corruption(self):
        heap = AddressableMinHeap()
        h1 = heap.push(1)
        heap.push(2)
        heap._slot_of[h1] = 1  # point the handle at the wrong slot
        with pytest.raises(AssertionError):
            heap.check_invariant()


class TestMinMergeCheckers:
    def test_detects_min_merge_violation(self):
        summary = MinMergeHistogram(buckets=2)
        summary.extend([0, 0, 0, 0])  # four identical singleton-ish buckets
        # Corrupt the *tail* bucket to a huge error: now the cheap pair at
        # the head (merge error 0) undercuts err(S) = 5000.
        kernel = summary._soa
        kernel.mn[kernel.tail], kernel.mx[kernel.tail] = 0, 10_000
        with pytest.raises(AssertionError):
            summary.check_min_merge_property()

    def test_detects_stale_heap_key(self):
        summary = MinMergeHistogram(buckets=2)
        summary.extend(range(20))
        kernel = summary._soa
        kernel.pkey[kernel.head] = -123.0
        with pytest.raises(AssertionError):
            kernel.check_consistency()

    def test_detects_missing_pair_key(self):
        summary = MinMergeHistogram(buckets=2)
        summary.extend(range(20))
        kernel = summary._soa
        kernel.heap[:] = [e for e in kernel.heap if e[2] != kernel.head]
        heapify(kernel.heap)
        with pytest.raises(AssertionError):
            kernel.check_consistency()

    def test_linear_mode_rejects_populated_heap(self):
        # The footnote-4 linear-scan FINDMIN lives on as a test oracle.
        summary = MinMergeReference(2, findmin="linear")
        summary.extend(range(20))
        summary._heap.push(1.0, None)
        with pytest.raises(AssertionError):
            summary.check_heap_consistency()


class TestHullChecker:
    def test_detects_non_convex_chain(self):
        hull = StreamingHull.from_points([(0, 0), (1, 5), (2, 0)])
        hull.upper.insert(1, (0.5, -100))  # a reflex vertex
        with pytest.raises(AssertionError):
            hull.check_invariant()

    def test_detects_endpoint_mismatch(self):
        hull = StreamingHull.from_points([(0, 0), (1, 5), (2, 0)])
        hull.lower[0] = (-1, 0)
        with pytest.raises(AssertionError):
            hull.check_invariant()


class TestStackChecker:
    def test_detects_value_monotonicity_violation(self):
        stack = SuffixExtremaStack("max")
        for v in (9, 5, 2):
            stack.append(v)
        stack._values[1] = 100  # no longer decreasing
        with pytest.raises(AssertionError):
            stack.check_invariant()

    def test_detects_position_violation(self):
        stack = SuffixExtremaStack("min")
        for v in (1, 2, 3):
            stack.append(v)
        stack._positions[:] = [0, 0]
        stack._values[:] = [1, 2]
        with pytest.raises(AssertionError):
            stack.check_invariant()


class TestGKChecker:
    def test_detects_gap_miscount(self):
        sketch = GKQuantileSketch(0.1)
        sketch.extend(range(100))
        sketch._entries[0].g += 5
        with pytest.raises(AssertionError):
            sketch.check_invariant()

    def test_detects_disorder(self):
        sketch = GKQuantileSketch(0.1)
        sketch.extend(range(100))
        sketch._entries[0], sketch._entries[-1] = (
            sketch._entries[-1],
            sketch._entries[0],
        )
        with pytest.raises(AssertionError):
            sketch.check_invariant()
