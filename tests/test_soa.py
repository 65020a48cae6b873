"""The structure-of-arrays kernels against the object-kernel oracle.

The SoA kernels (``repro.core.soa``) behind every ``MinMergeHistogram``
and ``PwlMinMergeHistogram`` promise *bit-identical* MIN-MERGE
maintenance -- same buckets, same error, same tie-breaks -- to the
linked-list + addressable-heap kernels kept in
``tests/min_merge_reference.py``.  These tests sweep both over seeded
randomized and adversarial streams and require exact state equality at
every interface: scalar ``insert``, batched ``extend``, checkpoints
written under either old ``backend`` key, parallel tree-reduce merges,
the deprecated ``backend=`` argument of the API and service plumbing,
and the engine's epoch-keyed query cache that rides on top.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import checkpoint
from repro.api import build_summary, summarize
from repro.core.min_merge import MinMergeHistogram
from repro.core.pwl_min_merge import PwlMinMergeHistogram
from repro.exceptions import InvalidParameterError
from repro.observability.metrics import MetricsRegistry
from repro.parallel import ParallelSummarizer
from repro.parallel.reduce import tree_reduce
from repro.service import StreamEngine
from tests.min_merge_reference import MinMergeReference, PwlMinMergeReference


def _dataset(name: str, n: int, seed: int = 0) -> list:
    """Seeded stream families, including the adversarial orderings."""
    rng = np.random.default_rng(seed)
    if name == "uniform":
        return rng.integers(0, 1 << 14, n).tolist()
    if name == "duplicates":
        return rng.integers(0, 7, n).tolist()
    if name == "rough":
        return [(37 * i + (i * i) % 89) % 1024 for i in range(n)]
    if name == "sorted":
        return sorted(rng.integers(0, 1 << 14, n).tolist())
    if name == "sawtooth":
        return [i % 97 for i in range(n)]
    if name == "constant":
        return [42] * n
    if name == "extremes":
        return [0 if i % 2 else 10_000 for i in range(n)]
    if name == "floats":
        return (rng.random(n) * 1000).tolist()
    raise AssertionError(name)


DATASETS = (
    "uniform",
    "duplicates",
    "rough",
    "sorted",
    "sawtooth",
    "constant",
    "extremes",
    "floats",
)


def _state(summary) -> tuple:
    return (
        summary.items_seen,
        [repr(b) for b in summary.buckets_snapshot()],
        summary.error,
    )


_ORACLES = {
    MinMergeHistogram: MinMergeReference,
    PwlMinMergeHistogram: PwlMinMergeReference,
}


def _pair(cls, buckets, **kwargs):
    """(object-kernel oracle, production summary) with one configuration."""
    return _ORACLES[cls](buckets, **kwargs), cls(buckets=buckets, **kwargs)


def _segments(hist) -> list:
    return [(s.beg, s.end, s.left, s.right) for s in hist]


class TestConstruction:
    def test_invalid_backend_rejected(self):
        for method in ("min-merge", "pwl-min-merge"):
            with pytest.raises(InvalidParameterError):
                build_summary(method, buckets=4, backend="nope")
            build_summary(method, buckets=4, backend="soa")
            build_summary(method, buckets=4, backend="object")

    def test_build_summary_rejects_backend_for_other_methods(self):
        with pytest.raises(InvalidParameterError):
            build_summary("min-increment", buckets=4, backend="soa")


class TestScalarEquivalence:
    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize("buckets", [1, 2, 3, 8, 32])
    def test_insert_bit_identical(self, dataset, buckets):
        data = _dataset(dataset, 600)
        obj, soa = _pair(MinMergeHistogram, buckets)
        for v in data:
            obj.insert(v)
            soa.insert(v)
        assert _state(obj) == _state(soa)
        soa._soa.check_consistency()
        soa.check_min_merge_property()

    @pytest.mark.parametrize("seed", range(5))
    def test_random_sweep_with_invariants(self, seed):
        data = _dataset("uniform", 500, seed=seed)
        obj, soa = _pair(MinMergeHistogram, 2 + seed)
        for i, v in enumerate(data):
            obj.insert(v)
            soa.insert(v)
            if i % 97 == 0:
                assert _state(obj) == _state(soa)
                soa._soa.check_consistency()
        assert _state(obj) == _state(soa)

    def test_long_tiny_budget_stream_exercises_compaction(self):
        # B=2 keeps merging constantly; the lazy heap must compact and
        # stay within its staleness bound throughout.
        data = _dataset("rough", 5_000)
        obj, soa = _pair(MinMergeHistogram, 2)
        for v in data:
            obj.insert(v)
            soa.insert(v)
        assert _state(obj) == _state(soa)
        soa._soa.check_consistency()

    def test_histogram_segments_match(self):
        data = _dataset("uniform", 400)
        obj, soa = _pair(MinMergeHistogram, 6)
        obj.extend(data)
        soa.extend(data)
        assert _segments(obj.histogram()) == _segments(soa.histogram())


class TestBatchEquivalence:
    @pytest.mark.parametrize("dataset", DATASETS)
    def test_extend_bit_identical(self, dataset):
        arr = np.asarray(_dataset(dataset, 3_000))
        obj, soa = _pair(MinMergeHistogram, 16)
        obj.extend(arr)
        soa.extend(arr)
        assert _state(obj) == _state(soa)
        soa._soa.check_consistency()

    def test_extend_matches_scalar_inserts(self):
        data = _dataset("uniform", 2_000, seed=3)
        scalar = MinMergeHistogram(buckets=8)
        for v in data:
            scalar.insert(v)
        batched = MinMergeHistogram(buckets=8)
        batched.extend(np.asarray(data))
        assert _state(scalar) == _state(batched)

    def test_mixed_chunked_ingest(self):
        data = _dataset("rough", 2_400, seed=1)
        obj, soa = _pair(MinMergeHistogram, 5)
        for lo in range(0, len(data), 400):
            chunk = data[lo : lo + 400]
            obj.extend(np.asarray(chunk))
            soa.extend(np.asarray(chunk))
            assert _state(obj) == _state(soa)


class TestPwlEquivalence:
    @pytest.mark.parametrize("dataset", ("uniform", "duplicates", "sawtooth"))
    def test_insert_bit_identical(self, dataset):
        data = _dataset(dataset, 300)
        obj, soa = _pair(PwlMinMergeHistogram, 4)
        for v in data:
            obj.insert(v)
            soa.insert(v)
        assert _state(obj) == _state(soa)

    def test_extend_bit_identical(self):
        arr = np.asarray(_dataset("uniform", 2_000, seed=2))
        obj, soa = _pair(PwlMinMergeHistogram, 6)
        obj.extend(arr)
        soa.extend(arr)
        assert _state(obj) == _state(soa)
        assert _segments(obj.histogram()) == _segments(soa.histogram())


class TestCheckpointCrossBackend:
    @pytest.mark.parametrize("src,dst", [("object", "soa"), ("soa", "object")])
    @pytest.mark.parametrize("kind", ["min-merge", "pwl-min-merge"])
    def test_midstream_restore_across_backends(self, kind, src, dst):
        # A checkpoint naming either old kernel restores onto the one
        # kernel; feed the tail to both: the futures must be bit-identical.
        data = _dataset("uniform", 1_200, seed=4)
        reference = build_summary(kind, buckets=6, backend=src)
        reference.extend(data[:700])
        state = checkpoint.state_dict(reference)
        state["backend"] = dst
        restored = checkpoint.restore(state)
        assert _state(reference) == _state(restored)
        reference.extend(data[700:])
        restored.extend(data[700:])
        assert _state(reference) == _state(restored)

    def test_json_round_trip_preserves_backend(self):
        # The "backend" key is still written, for readers that select a
        # kernel by it.
        summary = MinMergeHistogram(buckets=4)
        summary.extend(_dataset("rough", 300))
        payload = checkpoint.to_json(summary)
        assert '"backend":"soa"' in payload
        restored = checkpoint.from_json(payload)
        assert _state(summary) == _state(restored)


class TestParallelEquivalence:
    @pytest.mark.parametrize("method", ["min-merge", "pwl-min-merge"])
    def test_tree_reduce_matches_object_backend(self, method):
        data = np.asarray(_dataset("uniform", 6_000, seed=5))
        summarizer = ParallelSummarizer(
            method, buckets=8, workers=3, backend="thread", serial_cutoff=1
        )
        summary = summarizer.summarize(data)
        oracle_cls = MinMergeReference if method == "min-merge" else PwlMinMergeReference
        shards = []
        for shard in summarizer.plan(len(data)):
            child = oracle_cls(8)
            child.items_seen = shard.start
            child.extend(data[shard.slice()])
            shards.append(child)

        def merge(group, *, buckets):
            merged = oracle_cls(buckets)
            for child in group:
                merged.adopt_buckets(child.buckets_snapshot())
            merged.compact()
            return merged

        oracle = tree_reduce(shards, merge, buckets=8, arity=2)
        assert _state(summary) == _state(oracle)

    def test_summarize_workers_kwarg(self):
        data = _dataset("uniform", 4_000, seed=6)
        obj = summarize(data, 8, method="min-merge", workers=2)
        soa = summarize(data, 8, method="min-merge", workers=2, backend="soa")
        assert list(obj) == list(soa)


class TestApiPlumbing:
    @pytest.mark.parametrize("method", ["min-merge", "pwl-min-merge"])
    def test_summarize_backend_kwarg(self, method):
        data = _dataset("uniform", 1_500, seed=7)
        obj = summarize(data, 8, method=method)
        soa = summarize(data, 8, method=method, backend="soa")
        assert list(obj) == list(soa)
        assert soa.meta is not None and soa.meta.method == method

    def test_summarize_rejects_backend_elsewhere(self):
        data = _dataset("uniform", 100)
        with pytest.raises(InvalidParameterError):
            summarize(data, 8, method="min-increment", backend="soa")
        with pytest.raises(InvalidParameterError):
            summarize(data, 8, method="min-merge", backend="nope")


class TestEngineIntegration:
    def test_stream_backend_and_manifest(self, tmp_path):
        data = _dataset("uniform", 2_000, seed=8)
        with StreamEngine(checkpoint_dir=str(tmp_path)) as engine:
            handle = engine.stream(
                "s", method="min-merge", buckets=8, backend="soa"
            )
            handle.append(data)
            engine.checkpoint("s")
            served = list(engine.histogram("s"))
        # A fresh engine recovers the stream bit-identically.
        with StreamEngine(checkpoint_dir=str(tmp_path)) as engine:
            assert list(engine.histogram("s")) == served

    def test_query_cache_hits_between_writes(self):
        registry = MetricsRegistry()
        with StreamEngine(metrics=registry) as engine:
            handle = engine.stream("s", method="min-merge", buckets=8)
            handle.append(_dataset("uniform", 500, seed=9))
            first = engine.histogram("s")
            second = engine.histogram("s")
            assert list(first) == list(second)
            counters = registry.snapshot()["counters"]
            assert counters["s.query_cache_hits"] == 1
            assert counters["s.query_cache_misses"] == 1
            # A write starts a new epoch: the next query misses, then hits.
            handle.append([1, 2, 3])
            engine.histogram("s")
            engine.histogram("s")
            counters = registry.snapshot()["counters"]
            assert counters["s.query_cache_hits"] == 2
            assert counters["s.query_cache_misses"] == 2

    def test_cached_query_is_current_after_write(self):
        with StreamEngine() as engine:
            handle = engine.stream("s", method="min-merge", buckets=4)
            handle.append([1, 2, 3])
            stale = engine.histogram("s")
            handle.append([100, 200])
            fresh = engine.histogram("s")
            assert fresh.meta.items_seen == 5
            assert list(fresh) != list(stale) or len(fresh) != len(stale)

    def test_attached_streams_are_never_cached(self):
        summary = MinMergeHistogram(buckets=4)
        with StreamEngine() as engine:
            handle = engine.attach("s", summary, method="min-merge")
            handle.append([1, 2, 3])
            engine.histogram("s")
            # Out-of-band mutation the engine cannot see: an epoch-keyed
            # cache would serve a stale answer here.
            summary.insert(50)
            assert engine.histogram("s").meta.items_seen == 4
