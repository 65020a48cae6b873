"""The MIN-MERGE kernels against their object-kernel oracles.

``tests/min_merge_reference.py`` keeps the linked-list + addressable-heap
kernels (and the footnote-4 linear-scan FINDMIN) that the
structure-of-arrays kernels in ``repro.core.soa`` replaced.  These tests
hold the production classes to them: the checkpoint state after every
operation, old checkpoints and engine directories written before the
collapse, the conformance scenarios, and the latency recorder that runs
on the kernel.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import checkpoint
from repro.api import build_summary
from repro.core.min_merge import MinMergeHistogram
from repro.core.pwl_bucket import PwlBucket
from repro.core.pwl_min_merge import PwlMinMergeHistogram
from repro.core.soa_heap import COMPACT_FLOOR, COMPACT_RATIO
from repro.memory.model import DEFAULT_MODEL
from repro.observability.metrics import LatencyRecorder
from repro.offline.optimal import optimal_error
from repro.scenarios import conformance_scenarios, load_bundled
from repro.scenarios.generate import generate, schedules
from repro.service import StreamEngine
from tests.min_merge_reference import MinMergeReference, PwlMinMergeReference

DATA = Path(__file__).parent / "data"
#: Checkpoints of every old kernel combination, taken 240 values into
#: ``stream``, plus each one's state after the whole stream.
PARENT_CHECKPOINTS = json.loads((DATA / "min_merge_parent_checkpoints.json").read_text())
#: A checkpoint directory (manifests, snapshots, journal tails) written by
#: a StreamEngine that still took ``backend=``.
PARENT_ENGINE = json.loads((DATA / "min_merge_parent_engine.json").read_text())


def kernel_state(summary) -> dict:
    """``checkpoint.state_dict`` without the kernel-selection keys."""
    state = checkpoint.state_dict(summary)
    state.pop("backend", None)
    state.pop("findmin", None)
    return state


def assert_matches(summary, oracle) -> None:
    assert kernel_state(summary) == oracle.state_dict()
    assert summary.memory_bytes() == oracle.memory_bytes(DEFAULT_MODEL)
    if oracle.bucket_count:
        assert summary.error == oracle.error
    summary._soa.check_consistency()


def make_pair(family: str, buckets: int, hull_epsilon):
    if family == "min-merge":
        return MinMergeHistogram(buckets), MinMergeReference(buckets)
    return (
        PwlMinMergeHistogram(buckets, hull_epsilon=hull_epsilon),
        PwlMinMergeReference(buckets, hull_epsilon=hull_epsilon),
    )


def adopted_buckets(family: str, start: int, values, buckets: int, hull_epsilon):
    """Buckets of a shard summary that indexes from ``start``."""
    shard = make_pair(family, buckets, hull_epsilon)[1]
    shard.items_seen = start
    shard.extend(values)
    if family == "min-merge":
        return shard.buckets_snapshot()
    # PWL buckets are adopted as-is; each side gets its own copy.
    return [PwlBucket.from_state(b.to_state()) for b in shard.buckets_snapshot()]


values_st = st.lists(st.integers(0, 60), min_size=1, max_size=40)
operation = st.one_of(
    st.tuples(st.just("insert"), values_st),
    st.tuples(st.just("extend"), values_st),
    st.tuples(st.just("extend-array"), values_st),
    st.tuples(st.just("adopt"), values_st),
)


class TestDifferential:
    """Every operation leaves the kernel in the oracle's exact state."""

    @pytest.mark.parametrize(
        "family,hull_epsilon",
        [("min-merge", None), ("pwl-min-merge", None), ("pwl-min-merge", 0.1)],
    )
    @settings(max_examples=40, deadline=None)
    @given(
        buckets=st.integers(1, 5),
        operations=st.lists(operation, min_size=1, max_size=8),
    )
    def test_state_dict_after_every_operation(
        self, family, hull_epsilon, buckets, operations
    ):
        summary, oracle = make_pair(family, buckets, hull_epsilon)
        for op, values in operations:
            if op == "insert":
                for v in values:
                    summary.insert(v)
            elif op == "extend":
                summary.extend(values)
            elif op == "extend-array":
                summary.extend(np.asarray(values, dtype=np.int64))
            else:
                start = summary.items_seen
                for side in (summary, oracle):
                    side.adopt_buckets(
                        adopted_buckets(family, start, values, buckets, hull_epsilon)
                    )
                assert summary.compact() == oracle.compact()
                assert_matches(summary, oracle)
                continue
            oracle.extend(values)
            assert_matches(summary, oracle)

    @pytest.mark.parametrize("buckets", [1, 2, 8, 32])
    def test_long_float_stream(self, buckets):
        rng = np.random.default_rng(buckets)
        data = np.cumsum(rng.normal(size=6_000))
        summary, oracle = make_pair("min-merge", buckets, None)
        summary.extend(data)
        oracle.extend(data.tolist())
        assert_matches(summary, oracle)


class TestParentCheckpoints:
    """Checkpoints written by either old kernel restore and continue."""

    @pytest.mark.parametrize("case", sorted(PARENT_CHECKPOINTS["checkpoints"]))
    def test_restore_then_continue_equals_uninterrupted_run(self, case):
        stream = PARENT_CHECKPOINTS["stream"]
        prefix = PARENT_CHECKPOINTS["prefix"]
        state = PARENT_CHECKPOINTS["checkpoints"][case]
        resumed = checkpoint.restore(state)
        assert resumed.items_seen == prefix
        resumed.extend(stream[prefix:])
        fresh = checkpoint.restore({**state, "items_seen": 0, "bucket_list": []})
        fresh.extend(stream)
        assert kernel_state(resumed) == kernel_state(fresh)
        final = dict(PARENT_CHECKPOINTS["final"][case])
        final.pop("backend", None)
        final.pop("findmin", None)
        assert kernel_state(resumed) == final

    def test_fixtures_cover_every_old_kernel(self):
        states = PARENT_CHECKPOINTS["checkpoints"].values()
        kinds = {(s["kind"], s["backend"], s.get("findmin")) for s in states}
        assert ("min-merge", "object", "linear") in kinds
        assert ("min-merge", "object", "heap") in kinds
        assert ("min-merge", "soa", "heap") in kinds
        assert ("pwl-min-merge", "object", None) in kinds
        assert ("pwl-min-merge", "soa", None) in kinds

    def test_new_checkpoints_keep_the_old_selection_keys(self):
        summary = MinMergeHistogram(3)
        summary.extend(range(20))
        state = checkpoint.state_dict(summary)
        assert (state["findmin"], state["backend"]) == ("heap", "soa")
        pwl = PwlMinMergeHistogram(3)
        pwl.extend(range(20))
        assert checkpoint.state_dict(pwl)["backend"] == "soa"


class TestParentEngineDirectory:
    def test_recover_then_continue_equals_uninterrupted_run(self, tmp_path):
        for name, text in PARENT_ENGINE["files"].items():
            path = tmp_path / name
            path.parent.mkdir(exist_ok=True)
            path.write_text(text)
        stream = PARENT_ENGINE["stream"]
        prefix = PARENT_ENGINE["prefix"]
        with StreamEngine(checkpoint_dir=str(tmp_path)) as engine:
            assert set(engine.streams()) == set(PARENT_ENGINE["configs"])
            for stream_id, config in PARENT_ENGINE["configs"].items():
                assert engine.stats(stream_id)["items_seen"] == prefix
                engine.handle(stream_id).append(stream[prefix:])
                served = engine.histogram(stream_id)
                config = {k: v for k, v in config.items() if k != "backend"}
                method = config.pop("method")
                uninterrupted = build_summary(method, **config)
                uninterrupted.extend(stream)
                expected = uninterrupted.histogram()
                assert list(served) == list(expected), stream_id
                assert served.error == expected.error


class TestConformanceOracleCells:
    """The object-kernel cells of the conformance matrix, as oracles."""

    @pytest.mark.parametrize("name", sorted(conformance_scenarios()))
    @pytest.mark.parametrize("method", ("min-merge", "pwl-min-merge"))
    def test_batched_kernel_matches_scalar_oracle(self, name, method):
        spec = load_bundled(name)
        if spec.length > 4000:
            spec = spec.with_overrides(length=4000)
        stream_schedules = schedules(spec)
        for stream, values in generate(spec).items():
            summary = build_summary(method, buckets=spec.buckets)
            offset = 0
            for size in stream_schedules[stream]:
                summary.extend(values[offset : offset + size])
                offset += size
            if method == "min-merge":
                oracle = MinMergeReference(spec.buckets)
            else:
                oracle = PwlMinMergeReference(spec.buckets)
            oracle.extend(values.tolist())
            assert kernel_state(summary) == oracle.state_dict(), stream


class TestLatencyRecorder:
    def test_timeline_footprint_and_error_bound(self):
        buckets = 8
        recorder = LatencyRecorder("op", buckets=buckets)
        rng = np.random.default_rng(3)
        samples = rng.gamma(2.0, 1e-4, 5_000).tolist()
        kernel = recorder._timeline._soa
        pairs = 2 * buckets - 1
        heap_bound = max(COMPACT_FLOOR, COMPACT_RATIO * pairs) + COMPACT_FLOOR
        for seconds in samples:
            recorder.record(seconds)
            assert len(kernel.heap) <= heap_bound
        # O(B): slots are recycled, so the columns never outgrow 2B + 1.
        assert kernel.size == 2 * buckets
        assert len(kernel.beg) <= 2 * buckets + 1
        assert recorder._timeline.memory_bytes() == DEFAULT_MODEL.buckets(
            2 * buckets
        ) + DEFAULT_MODEL.heap_entries(pairs)
        snapshot = recorder.snapshot()
        micros = [s * 1e6 for s in samples]
        # Theorem 1: no worse than the optimal B-bucket timeline.
        assert snapshot["timeline_max_error_us"] <= optimal_error(micros, buckets)
        segments = recorder.timeline_segments()
        assert segments[0][0] == 0 and segments[-1][1] == len(samples) - 1
