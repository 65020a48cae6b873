"""Batch ingestion (``repro.core.batch``): exact batch/scalar equivalence.

The vectorized ``extend()`` overrides promise byte-identical summary state
to the scalar ``insert()`` loop.  These tests drive every registered
algorithm over randomized streams through both paths and compare full
bucket state, plus the ``insert_run`` primitive, checkpointing mid-batch,
observability batching semantics, and partial-ingest domain errors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import checkpoint
from repro.core.batch import absorbable_prefix, as_batch_array
from repro.core.bucket import Bucket
from repro.core.min_increment import MinIncrementHistogram
from repro.core.min_merge import MinMergeHistogram
from repro.exceptions import DomainError, InvalidParameterError
from repro.harness.runner import ALGORITHM_NAMES, make_algorithm

UNIVERSE = 1 << 10


def make(name: str, **overrides):
    kwargs = {
        "buckets": 6,
        "epsilon": 0.4,
        "universe": UNIVERSE,
        "window": 96,
        "hull_epsilon": 0.1,
    }
    kwargs.update(overrides)
    return make_algorithm(name, **kwargs)


def stream(seed: int, n: int = 900) -> np.ndarray:
    """A mixed stream: smooth walk, then noise, then constants."""
    rng = np.random.default_rng(seed)
    walk = np.clip(np.cumsum(rng.integers(-3, 4, n // 3)) + 500, 0, UNIVERSE - 1)
    noise = rng.integers(0, UNIVERSE, n // 3)
    flat = np.full(n - 2 * (n // 3), 7)
    return np.concatenate([walk, noise, flat]).astype(np.int64)


def state_of(summary):
    """Full observable bucket state, independent of the ingest path."""
    out = [summary.items_seen]
    if hasattr(summary, "buckets_snapshot"):
        for b in summary.buckets_snapshot():
            out.append((b.beg, b.end))
    try:
        hist = summary.histogram()
    except TypeError:
        # REHIST materializes histograms only from the original values.
        hist = None
    if hist is not None:
        out.append([(s.beg, s.end, s.left, s.right) for s in hist])
        out.append(hist.error)
    else:
        out.append(summary.error)
    out.append(summary.memory_bytes())
    return out


class TestEquivalenceAllAlgorithms:
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_matches_scalar(self, name, seed):
        data = stream(seed)
        scalar = make(name)
        for v in data.tolist():
            scalar.insert(v)
        batched = make(name)
        batched.extend(data)
        assert state_of(scalar) == state_of(batched)

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_list_and_ndarray_inputs_agree(self, name):
        data = stream(3)
        via_list = make(name)
        via_list.extend(data.tolist())
        via_array = make(name)
        via_array.extend(data)
        assert state_of(via_list) == state_of(via_array)

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_split_batches_match_one_batch(self, name):
        data = stream(4)
        whole = make(name)
        whole.extend(data)
        split = make(name)
        split.extend(data[:301])
        split.extend(data[301:].tolist())
        assert state_of(whole) == state_of(split)

    def test_exact_hull_pwl_min_merge_fast_path(self):
        # hull_epsilon=None engages the PWL min-merge vectorized path.
        data = stream(5)
        scalar = make("pwl-min-merge", hull_epsilon=None)
        for v in data.tolist():
            scalar.insert(v)
        batched = make("pwl-min-merge", hull_epsilon=None)
        batched.extend(data)
        assert state_of(scalar) == state_of(batched)

    def test_min_merge_heap_stays_consistent_after_batch(self):
        summary = MinMergeHistogram(buckets=5)
        summary.extend(stream(6))
        summary._soa.check_consistency()
        summary.check_min_merge_property()

    def test_float_streams(self):
        rng = np.random.default_rng(8)
        data = rng.random(500) * (UNIVERSE - 1)
        scalar = MinMergeHistogram(buckets=4)
        for v in data.tolist():
            scalar.insert(v)
        batched = MinMergeHistogram(buckets=4)
        batched.extend(data)
        assert state_of(scalar) == state_of(batched)


class TestMidBatchCheckpoint:
    """A checkpoint taken between batches restores and continues exactly."""

    @pytest.mark.parametrize(
        "name", ["min-merge", "min-increment", "sliding-window"]
    )
    def test_checkpoint_between_batches(self, name):
        data = stream(9)
        summary = make(name, hull_epsilon=None)
        summary.extend(data[:450])
        restored = checkpoint.restore(checkpoint.state_dict(summary))
        summary.extend(data[450:])
        restored.extend(data[450:])
        assert state_of(summary) == state_of(restored)

    def test_restored_min_merge_batches_like_scalar(self):
        data = stream(10)
        summary = MinMergeHistogram(buckets=5)
        summary.extend(data[:450])
        restored = checkpoint.restore(checkpoint.state_dict(summary))
        for v in data[450:].tolist():
            restored.insert(v)
        summary.extend(data[450:])
        assert state_of(summary) == state_of(restored)
        restored._soa.check_consistency()


class TestInsertRun:
    def test_bucket_insert_run_extends_bounds(self):
        bucket = Bucket.singleton(0, 5)
        bucket.insert_run(1, 4, 2, 9)
        assert (bucket.beg, bucket.end, bucket.min, bucket.max) == (0, 4, 2, 9)

    def test_bucket_insert_run_rejects_gaps(self):
        bucket = Bucket.singleton(0, 5)
        with pytest.raises(InvalidParameterError):
            bucket.insert_run(2, 4, 2, 9)

    def test_min_merge_insert_run_absorbs_cheap_run(self):
        summary = MinMergeHistogram(buckets=2)
        for v in [0, 100, 0, 100, 50, 50]:
            summary.insert(v)
        assert summary.insert_run(6, 9, 50, 50)
        assert summary.items_seen == 10
        summary._soa.check_consistency()


class TestKernels:
    def test_as_batch_array_passes_ndarray_through(self):
        arr = np.arange(5)
        assert as_batch_array(arr) is arr

    def test_as_batch_array_rejects_non_batchable(self):
        assert as_batch_array(iter([1, 2])) is None
        assert as_batch_array(np.array([[1, 2]])) is None
        assert as_batch_array(np.array([1.0, np.nan])) is None
        assert as_batch_array(["a", "b"]) is None
        assert as_batch_array(np.array([True, False])) is None

    def test_absorbable_prefix_matches_scalar_boundary(self):
        rng = np.random.default_rng(11)
        arr = rng.integers(0, 100, 200)
        target = 20.0
        j, lo, hi = absorbable_prefix(arr, arr, 0, 50, 50, target)
        # Scalar replay of the same greedy rule.
        slo = shi = 50
        k = 0
        while k < len(arr):
            v = int(arr[k])
            nlo, nhi = min(slo, v), max(shi, v)
            if (nhi - nlo) / 2.0 > target:
                break
            slo, shi = nlo, nhi
            k += 1
        assert (j, lo, hi) == (k, slo, shi)


class TestObservabilityBatching:
    def test_one_insert_event_per_batch(self):
        data = stream(12)
        summary = MinMergeHistogram(buckets=5, metrics=True)
        summary.extend(data)
        assert summary.metrics.inserts.value == len(data)
        # One aggregated latency sample, not one per item.
        assert summary.metrics.insert_latency.count == 1

    def test_batch_counters_match_scalar_counters(self):
        data = stream(13)
        scalar = MinMergeHistogram(buckets=5, metrics=True)
        for v in data.tolist():
            scalar.insert(v)
        batched = MinMergeHistogram(buckets=5, metrics=True)
        batched.extend(data)
        assert scalar.metrics.inserts.value == batched.metrics.inserts.value
        assert scalar.metrics.merges.value == batched.metrics.merges.value

    @pytest.mark.parametrize("name", ["sliding-window", "sliding-window-pwl"])
    def test_sliding_window_eviction_counts_match(self, name):
        data = stream(14)
        scalar = make(name, metrics=True)
        for v in data.tolist():
            scalar.insert(v)
        batched = make(name, metrics=True)
        batched.extend(data)
        assert (
            scalar.metrics.evictions.value == batched.metrics.evictions.value
        )


class TestDomainErrors:
    def test_batch_ingests_prefix_before_offender(self):
        summary = MinIncrementHistogram(4, 0.4, UNIVERSE)
        data = np.array([1, 2, 3, UNIVERSE + 5, 4])
        with pytest.raises(DomainError):
            summary.extend(data)
        # Scalar semantics: everything before the offender was ingested.
        assert summary.items_seen == 3

    @pytest.mark.parametrize("name", ["sliding-window", "sliding-window-pwl"])
    def test_sliding_window_batch_domain_error(self, name):
        summary = make(name)
        with pytest.raises(DomainError):
            summary.extend(np.array([1, 2, -1, 4]))
        assert summary.items_seen == 2

    @pytest.mark.parametrize("name", ["sliding-window", "sliding-window-pwl"])
    def test_sliding_window_batch_domain_check_matches_insert(self, name):
        # float64 rounds this universe down to 2**53, so 2.0**53, which
        # the scalar test accepts, fails the array test.
        universe = 2**53 + 1
        scalar = make(name, universe=universe)
        batched = make(name, universe=universe)
        scalar.insert(2.0**53)
        batched.extend([2.0**53])
        assert state_of(batched) == state_of(scalar)
        with pytest.raises(DomainError):
            batched.extend([1.0, 2.0**53 + 2])
        assert batched.items_seen == 2


class TestApiNdarray:
    def test_summarize_accepts_ndarray_without_copy(self):
        from repro import summarize

        data = np.random.default_rng(15).integers(0, 500, 2000)
        hist_arr = summarize(data, buckets=8)
        hist_list = summarize(data.tolist(), buckets=8)
        assert [(s.beg, s.end) for s in hist_arr] == [
            (s.beg, s.end) for s in hist_list
        ]
        assert hist_arr.error == hist_list.error

    def test_summarize_ndarray_universe_is_vectorized(self):
        data = np.array([3, 1, 4, 1, 5])
        from repro.api import _universe_for

        assert _universe_for(data) == 6
