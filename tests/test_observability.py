"""Tests for the opt-in instrumentation layer (repro.observability)."""

from __future__ import annotations

import json
import random

import pytest

from repro import MetricsRegistry, SummaryMetrics, restore, state_dict
from repro.baselines.gk_quantile import GKQuantileSketch
from repro.baselines.rehist import RehistHistogram
from repro.core.min_increment import MinIncrementHistogram
from repro.core.min_merge import MinMergeHistogram
from repro.core.sliding_window import SlidingWindowMinIncrement
from repro.exceptions import InvalidParameterError
from repro.fleet import StreamFleet
from repro.harness.runner import make_algorithm, run_stream
from repro.harness.reporting import render_metrics
from repro.observability import resolve_metrics
from repro.observability.metrics import LatencyRecorder


def _counters(summary) -> dict:
    return summary.metrics.snapshot()["counters"]


class TestRegistryPrimitives:
    def test_counter_create_or_get(self):
        registry = MetricsRegistry()
        c = registry.counter("inserts")
        c.incr()
        c.incr(4)
        assert registry.counter("inserts") is c
        assert c.value == 5
        c.reset()
        assert c.value == 0

    def test_gauge_explicit_and_sourced(self):
        registry = MetricsRegistry()
        g = registry.gauge("depth")
        g.set(3.5)
        assert g.value == 3.5
        box = {"n": 7}
        sourced = registry.gauge("depth", source=lambda: box["n"])
        assert sourced is g
        assert g.value == 7
        box["n"] = 9
        assert registry.snapshot()["gauges"]["depth"] == 9

    def test_name_clash_across_kinds_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(InvalidParameterError, match="different instrument"):
            registry.gauge("x")
        with pytest.raises(InvalidParameterError, match="different instrument"):
            registry.latency("x")

    def test_latency_recorder_statistics(self):
        rec = LatencyRecorder("op", buckets=8)
        for us in [10, 20, 30, 40, 1000]:
            rec.record(us * 1e-6)
        snap = rec.snapshot()
        assert snap["count"] == 5
        assert snap["min_us"] == pytest.approx(10.0)
        assert snap["max_us"] == pytest.approx(1000.0)
        assert snap["mean_us"] == pytest.approx(220.0)
        assert snap["p50_us"] <= snap["p99_us"] <= snap["max_us"]
        assert snap["timeline_max_error_us"] >= 0.0
        with pytest.raises(InvalidParameterError):
            rec.quantile(1.5)

    def test_empty_latency_snapshot(self):
        rec = LatencyRecorder("op")
        assert rec.snapshot() == {"count": 0}
        assert rec.quantile(0.5) == 0.0
        assert rec.mean == 0.0

    def test_registry_reset_and_json(self):
        registry = MetricsRegistry()
        registry.counter("a").incr(3)
        registry.latency("lat").record(1e-6)
        payload = json.loads(registry.to_json())
        assert payload["counters"]["a"] == 3
        assert payload["latencies"]["lat"]["count"] == 1
        registry.reset()
        snap = registry.snapshot()
        assert snap["counters"]["a"] == 0
        assert snap["latencies"]["lat"] == {"count": 0}
        assert len(registry) == 2

    def test_resolve_metrics_normalization(self):
        assert resolve_metrics(None) is None
        assert resolve_metrics(False) is None
        assert isinstance(resolve_metrics(True), SummaryMetrics)
        registry = MetricsRegistry()
        facade = resolve_metrics(registry, prefix="p.")
        assert facade.registry is registry
        assert facade.prefix == "p."
        assert resolve_metrics(facade) is facade
        with pytest.raises(InvalidParameterError, match="metrics must be"):
            resolve_metrics("yes")


class TestSummaryEvents:
    def test_min_merge_counts_inserts_and_merges(self):
        summary = MinMergeHistogram(buckets=4, metrics=True)
        rng = random.Random(7)
        n = 500
        summary.extend(rng.random() for _ in range(n))
        counters = _counters(summary)
        assert counters["inserts"] == n
        # Steady state: every insert past the working budget forces a merge.
        assert counters["merges"] == n - summary.working_buckets
        snap = summary.metrics.snapshot()
        assert snap["latencies"]["insert_latency"]["count"] == n
        assert snap["gauges"]["bucket_count"] == summary.bucket_count
        assert snap["gauges"]["memory_bytes"] == summary.memory_bytes()

    def test_min_increment_counts_promotions(self):
        summary = MinIncrementHistogram(
            buckets=4, epsilon=0.5, universe=1 << 10, metrics=True
        )
        rng = random.Random(11)
        summary.extend(rng.randrange(1 << 10) for _ in range(800))
        counters = _counters(summary)
        assert counters["inserts"] == 800
        assert counters["promotions"] > 0
        assert counters["merges"] > 0
        # Promotions is exactly the number of dead ladder levels.
        assert counters["promotions"] == len(summary.ladder) - len(
            summary.alive_levels
        )

    def test_sliding_window_counts_evictions(self):
        summary = SlidingWindowMinIncrement(
            buckets=4, epsilon=0.5, universe=1 << 8, window=32, metrics=True
        )
        rng = random.Random(17)
        summary.extend(rng.randrange(1 << 8) for _ in range(400))
        counters = _counters(summary)
        assert counters["inserts"] == 400
        assert counters["evictions"] > 0

    def test_rehist_and_gk_record_events(self):
        rng = random.Random(19)
        values = [rng.randrange(1 << 10) for _ in range(300)]
        rehist = RehistHistogram(
            buckets=4, epsilon=0.5, universe=1 << 10, metrics=True
        )
        rehist.extend(values)
        assert _counters(rehist)["inserts"] == 300
        gk = GKQuantileSketch(epsilon=0.05, metrics=True)
        for v in values:
            gk.insert(v)
        counters = _counters(gk)
        assert counters["inserts"] == 300
        assert counters["flushes"] > 0  # compress sweeps ran

    def test_disabled_summaries_have_no_metrics(self):
        assert MinMergeHistogram(buckets=4).metrics is None
        assert MinMergeHistogram(buckets=4, metrics=False).metrics is None
        summary = MinMergeHistogram(buckets=4)
        summary.extend([1, 2, 3])
        assert summary.metrics is None

    def test_shared_registry_aggregates_across_summaries(self):
        registry = MetricsRegistry()
        a = MinMergeHistogram(buckets=4, metrics=registry)
        b = MinMergeHistogram(buckets=4, metrics=registry)
        a.extend([1, 2, 3])
        b.extend([4, 5])
        assert registry.snapshot()["counters"]["inserts"] == 5


class TestFleetMetrics:
    def test_fleet_shares_one_registry_across_streams(self):
        fleet = StreamFleet(buckets=4, metrics=True)
        rng = random.Random(23)
        for _ in range(200):
            fleet.insert("a", rng.random())
            fleet.insert("b", rng.random())
        snap = fleet.metrics.snapshot()
        assert snap["counters"]["inserts"] == 400
        assert snap["gauges"]["streams"] == 2
        assert snap["gauges"]["memory_bytes"] == fleet.memory_bytes()

    def test_fleet_remove_stream_counts_an_eviction(self):
        fleet = StreamFleet(buckets=4, metrics=True)
        fleet.insert("a", 1.0)
        fleet.insert("b", 2.0)
        fleet.remove_stream("a")
        snap = fleet.metrics.snapshot()
        assert snap["counters"]["evictions"] == 1
        assert snap["gauges"]["streams"] == 1


class TestHarnessAndCli:
    def test_run_stream_snapshots_metrics(self):
        algorithm = make_algorithm(
            "min-increment",
            buckets=4,
            epsilon=0.5,
            universe=1 << 10,
            metrics=True,
        )
        rng = random.Random(29)
        values = [rng.randrange(1 << 10) for _ in range(256)]
        result = run_stream(algorithm, values)
        assert result.metrics is not None
        assert result.metrics["counters"]["inserts"] == 256

    def test_run_stream_without_metrics_is_none(self):
        algorithm = make_algorithm(
            "min-merge", buckets=4, epsilon=0.5, universe=1 << 10
        )
        result = run_stream(algorithm, [1.0, 2.0, 3.0])
        assert result.metrics is None

    def test_render_metrics_tables(self):
        summary = MinMergeHistogram(buckets=4, metrics=True)
        summary.extend(range(100))
        text = render_metrics(summary.metrics.snapshot())
        assert "inserts" in text
        assert "100" in text
        assert "insert_latency" in text
        assert render_metrics({}) == "metrics: (empty)"

    def test_cli_stats_smoke(self, capsys):
        from repro.cli import main

        main(
            [
                "stats",
                "--dataset",
                "brownian",
                "--algorithm",
                "min-increment",
                "-B",
                "8",
                "-n",
                "512",
            ]
        )
        out = capsys.readouterr().out
        assert "counters" in out
        assert "inserts" in out

    def test_cli_stats_json(self, capsys):
        from repro.cli import main

        main(["stats", "-B", "8", "-n", "256", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["counters"]["inserts"] == 256


class TestCheckpointInteraction:
    def test_restore_returns_uninstrumented_summary(self):
        rng = random.Random(31)
        values = [rng.randrange(1 << 10) for _ in range(300)]
        summary = MinIncrementHistogram(
            buckets=4, epsilon=0.5, universe=1 << 10, metrics=True
        )
        summary.extend(values)
        assert summary.metrics is not None
        restored = restore(state_dict(summary))
        # Metrics are process-local state: never serialized, reset on restore.
        assert restored.metrics is None
        # The algorithm state itself round-trips exactly.
        assert restored.items_seen == summary.items_seen
        assert restored.error == summary.error
        more = [rng.randrange(1 << 10) for _ in range(100)]
        summary.extend(more)
        restored.extend(more)
        assert restored.error == summary.error
        assert [s.left for s in restored.histogram().segments] == [
            s.left for s in summary.histogram().segments
        ]

    def test_checkpoint_payload_contains_no_metrics(self):
        summary = MinMergeHistogram(buckets=4, metrics=True)
        summary.extend(range(50))
        payload = json.dumps(state_dict(summary))
        assert "metrics" not in payload
        assert "latency" not in payload
