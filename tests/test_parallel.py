"""Tests for the parallel shard-ingest executor (``repro.parallel``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import summarize
from repro.core.aggregation import merge_min_merge_summaries
from repro.core.min_merge import MinMergeHistogram
from repro.exceptions import InvalidParameterError
from repro.fleet import StreamFleet
from repro.offline.optimal import optimal_error
from repro.parallel import (
    ParallelSummarizer,
    ShardPlan,
    available_cpus,
    fork_available,
    map_tasks,
    resolve_workers,
    summarize_parallel,
    tree_reduce,
)


def _state(summary):
    """Comparable snapshot: items, histogram geometry, error."""
    return (
        summary.items_seen,
        [(b.beg, b.end, b.left, b.right) for b in summary.histogram()],
        summary.error,
    )


def _stream(items: int, seed: int = 1) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 10, items)


class TestShardPlan:
    @pytest.mark.parametrize("total,workers", [(1, 1), (7, 3), (100, 4), (5, 8)])
    def test_contiguous_cover(self, total, workers):
        plan = ShardPlan.split(total, workers)
        assert plan.total == total
        assert len(plan) == min(workers, total)
        expected = 0
        for shard in plan:
            assert shard.start == expected
            assert shard.count >= 1
            expected = shard.stop
        assert expected == total

    def test_balanced_sizes(self):
        plan = ShardPlan.split(10, 3)
        assert [s.count for s in plan] == [4, 3, 3]

    def test_slice_views(self):
        data = list(range(11))
        plan = ShardPlan.split(len(data), 4)
        rejoined = []
        for shard in plan:
            rejoined.extend(data[shard.slice()])
        assert rejoined == data

    def test_rejects_empty_stream(self):
        with pytest.raises(InvalidParameterError):
            ShardPlan.split(0, 2)

    def test_rejects_bad_worker_count(self):
        with pytest.raises(InvalidParameterError):
            ShardPlan.split(10, 0)


class TestWorkerSizing:
    def test_none_is_serial(self):
        assert resolve_workers(None, 10 ** 9, serial_cutoff=1) == 1

    def test_auto_stays_serial_below_cutoff(self):
        assert resolve_workers("auto", 1_000, serial_cutoff=1_000) == 1

    def test_auto_scales_with_items_and_cpus(self):
        got = resolve_workers("auto", 10 ** 9, serial_cutoff=1_000)
        assert got == available_cpus()

    def test_explicit_int_honored(self):
        assert resolve_workers(6, 100, serial_cutoff=1_000) == 6

    @pytest.mark.parametrize("bad", [0, -2, True, 1.5, "many"])
    def test_invalid_workers_rejected(self, bad):
        with pytest.raises(InvalidParameterError):
            resolve_workers(bad, 100, serial_cutoff=1)


class TestMapTasks:
    def test_preserves_order(self):
        tasks = list(range(20))
        assert map_tasks(lambda x: x * x, tasks) == [x * x for x in tasks]

    def test_threaded_matches_serial(self):
        tasks = list(range(20))
        serial = map_tasks(lambda x: x + 1, tasks, workers=None)
        pooled = map_tasks(lambda x: x + 1, tasks, workers=3)
        auto = map_tasks(lambda x: x + 1, tasks, workers="auto")
        assert serial == pooled == auto

    def test_invalid_workers_rejected(self):
        with pytest.raises(InvalidParameterError):
            map_tasks(lambda x: x, [1, 2], workers=0)


class TestTreeReduce:
    @staticmethod
    def _children(values, pieces, buckets=4):
        plan = ShardPlan.split(len(values), pieces)
        children = []
        for shard in plan:
            child = MinMergeHistogram(buckets=buckets)
            child._n = shard.start
            child.extend(values[shard.slice()])
            children.append(child)
        return children

    def test_single_child_passthrough(self):
        child = MinMergeHistogram(buckets=4)
        child.extend([1, 2, 3])
        assert tree_reduce([child], merge_min_merge_summaries) is child

    @pytest.mark.parametrize("arity", [2, 3, 5])
    def test_keeps_guarantee_for_any_arity(self, arity):
        values = [int(v) for v in _stream(400)]
        root = tree_reduce(
            self._children(values, 5),
            merge_min_merge_summaries,
            buckets=4,
            arity=arity,
        )
        assert root.items_seen == len(values)
        assert root.error <= optimal_error(values, 4) + 1e-12

    def test_mapper_does_not_change_result(self):
        values = [int(v) for v in _stream(300, seed=5)]
        plain = tree_reduce(
            self._children(values, 4), merge_min_merge_summaries, buckets=4
        )
        # An eager list-mapper stands in for an executor map.
        mapped = tree_reduce(
            self._children(values, 4),
            merge_min_merge_summaries,
            buckets=4,
            mapper=lambda fn, groups: [fn(g) for g in groups],
        )
        assert _state(plain) == _state(mapped)

    def test_rejects_bad_arity_and_empty(self):
        with pytest.raises(InvalidParameterError):
            tree_reduce([], merge_min_merge_summaries)
        child = MinMergeHistogram(buckets=2)
        child.extend([1])
        with pytest.raises(InvalidParameterError):
            tree_reduce([child], merge_min_merge_summaries, arity=1)


class TestParallelSummarizer:
    @pytest.mark.parametrize("method,items", [("min-merge", 20_000), ("pwl-min-merge", 1_500)])
    def test_thread_backend_matches_reference(self, method, items):
        data = _stream(items)
        runner = ParallelSummarizer(
            method, buckets=16, workers=4, backend="thread", serial_cutoff=1
        )
        assert _state(runner.summarize(data)) == _state(runner.reference(data))

    @pytest.mark.skipif(not fork_available(), reason="needs POSIX fork")
    @pytest.mark.parametrize("method,items", [("min-merge", 20_000), ("pwl-min-merge", 1_500)])
    def test_process_backend_matches_reference(self, method, items):
        data = _stream(items, seed=2)
        runner = ParallelSummarizer(
            method, buckets=16, workers=3, backend="process", serial_cutoff=1
        )
        assert _state(runner.summarize(data)) == _state(runner.reference(data))

    def test_keeps_the_one_two_guarantee(self):
        data = _stream(3_000, seed=3)
        summary = ParallelSummarizer(
            "min-merge", buckets=8, workers=4, backend="thread", serial_cutoff=1
        ).summarize(data)
        assert summary.items_seen == len(data)
        assert len(summary.histogram()) <= 16
        assert summary.error <= optimal_error(data.tolist(), 8) + 1e-12

    def test_serial_when_auto_sees_a_small_stream(self):
        data = _stream(500, seed=4)
        runner = ParallelSummarizer("min-merge", buckets=8, workers="auto")
        assert len(runner.plan(len(data))) == 1
        serial = MinMergeHistogram(buckets=8)
        serial.extend(data)
        assert _state(runner.summarize(data)) == _state(serial)

    def test_list_input_supported(self):
        values = [int(v) for v in _stream(2_000, seed=6)]
        runner = ParallelSummarizer(
            "min-merge", buckets=8, workers=3, backend="thread", serial_cutoff=1
        )
        assert _state(runner.summarize(values)) == _state(runner.reference(values))

    def test_non_mergeable_method_rejected(self):
        with pytest.raises(InvalidParameterError, match="not merge-capable"):
            ParallelSummarizer("min-increment", buckets=8)

    def test_bad_backend_rejected(self):
        with pytest.raises(InvalidParameterError):
            ParallelSummarizer("min-merge", buckets=8, backend="gpu")

    def test_empty_stream_rejected(self):
        runner = ParallelSummarizer("min-merge", buckets=8)
        with pytest.raises(InvalidParameterError):
            runner.summarize(np.asarray([], dtype=np.int64))

    def test_summarize_parallel_shortcut(self):
        data = _stream(2_000, seed=8)
        summary = summarize_parallel(
            data, 8, workers=2, backend="thread", serial_cutoff=1
        )
        assert summary.items_seen == len(data)


class TestParallelMetrics:
    def test_per_shard_counters_aggregate(self):
        data = _stream(8_000, seed=9)
        runner = ParallelSummarizer(
            "min-merge", buckets=8, workers=4, backend="thread",
            serial_cutoff=1, metrics=True,
        )
        summary = runner.summarize(data)
        assert summary.metrics is not None
        totals = summary.metrics.counter_totals()
        # Every item was inserted in exactly one shard; the facade reports
        # the sum across shards plus the reduction tree's own merges.
        assert totals["inserts"] == len(data)
        assert totals["merges"] > 0

    @pytest.mark.skipif(not fork_available(), reason="needs POSIX fork")
    def test_counters_survive_the_process_boundary(self):
        data = _stream(8_000, seed=10)
        runner = ParallelSummarizer(
            "min-merge", buckets=8, workers=3, backend="process",
            serial_cutoff=1, metrics=True,
        )
        summary = runner.summarize(data)
        assert summary.metrics.counter_totals()["inserts"] == len(data)

    def test_serial_path_still_instruments(self):
        data = _stream(300, seed=11)
        runner = ParallelSummarizer(
            "min-merge", buckets=8, workers=None, metrics=True
        )
        summary = runner.summarize(data)
        assert summary.metrics.counter_totals()["inserts"] == len(data)


class TestApiWorkers:
    def test_workers_dispatch_matches_guarantee(self):
        data = _stream(2_000, seed=12)
        hist = summarize(data, 8, method="min-merge", workers=2)
        assert hist.beg == 0
        assert hist.end == len(data) - 1
        assert hist.error <= optimal_error(data.tolist(), 8) + 1e-12

    def test_workers_one_is_plain_serial(self):
        data = _stream(600, seed=13)
        assert (
            summarize(data, 8, method="min-merge", workers=1).segments
            == summarize(data, 8, method="min-merge").segments
        )

    @pytest.mark.parametrize("method", ["min-increment", "pwl", "optimal"])
    def test_non_mergeable_methods_rejected(self, method):
        with pytest.raises(InvalidParameterError, match="merge-capable"):
            summarize([1, 2, 3, 4], 2, method=method, workers=2)

    def test_class_method_rejected(self):
        with pytest.raises(InvalidParameterError, match="merge-capable"):
            summarize([1, 2, 3, 4], 2, method=MinMergeHistogram, workers=2)


class TestFleetExtendRows:
    @staticmethod
    def _rows(ticks=200, seed=14):
        rng = np.random.default_rng(seed)
        table = rng.integers(0, 100, (ticks, 3))
        return [
            {"a": int(r[0]), "b": int(r[1]), "c": int(r[2])} for r in table
        ]

    def test_parallel_rows_match_serial(self):
        rows = self._rows()
        serial = StreamFleet(buckets=8)
        serial.extend_rows(rows)
        pooled = StreamFleet(buckets=8)
        pooled.extend_rows(rows, workers=3)
        assert serial.ids == pooled.ids
        for stream_id in serial.ids:
            assert _state(serial.summary(stream_id)) == _state(
                pooled.summary(stream_id)
            )

    def test_shared_registry_totals(self):
        rows = self._rows(ticks=120, seed=15)
        fleet = StreamFleet(buckets=8, metrics=True)
        fleet.extend_rows(rows, workers="auto")
        assert fleet.items_seen == 3 * 120
        totals = fleet.metrics.counter_totals()
        assert totals["inserts"] == 3 * 120
