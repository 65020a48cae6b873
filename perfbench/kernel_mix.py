"""kernel-mix: the library in-process, single-threaded, no service.

Every kernel is built with ``repro.api.build_summary`` and fed its
family's seeded streams two ways, batch by batch: batched ``extend()``
calls into one summary, and runs of per-item ``insert()`` calls into
another.  Each family has LANES independent streams, fed in turn, so a
run's cost averages over several random walks instead of resting on
one.  Every eighth append on a summary is followed by a timed
``histogram()`` call.  A round feeds each family a fixed number of
batches.  One untimed warm-up round comes first; timed rounds then repeat
until ``--seconds`` have passed.

The batch size and the batches per round of each family are fixed so
that, at the seed commit:

* each of the four families (min-merge with both backends,
  min-increment, pwl-min-merge, pwl) takes between a fifth and a half of
  the kernel time (``core.time_share.*`` in the traced run shows it), so
  a 2x gain in any one family moves ``ingest_items_s`` by about 10% or
  more;
* the reported percentiles fall inside one kind of call, not on the edge
  between two kinds of very different cost, where they would jump with
  the data.
"""

from __future__ import annotations

import subprocess
import sys
import time
from typing import Dict, List

import numpy as np

import common
import gate
from common import GateError, metric

#: (kernel, method, build_summary kwargs, family).
KERNELS = (
    ("min-merge-object", "min-merge", {"backend": "object"}, "min-merge"),
    ("min-merge-soa", "min-merge", {"backend": "soa"}, "min-merge"),
    ("min-increment", "min-increment", {}, "min-increment"),
    ("pwl-min-merge", "pwl-min-merge", {}, "pwl-min-merge"),
    ("pwl", "pwl", {}, "pwl"),
)
FAMILIES = ("min-merge", "min-increment", "pwl-min-merge", "pwl")

#: Items per append batch, per family (the spec's steady arrival pattern).
BATCH = {"min-merge": 256, "min-increment": 64, "pwl-min-merge": 8, "pwl": 8}
#: Batches fed to each family per round.
ROUND_BATCHES = {"min-merge": 52, "min-increment": 76, "pwl-min-merge": 100, "pwl": 8}
#: Independent streams (and summary pairs) per family.
LANES = 4
#: Rounds of input generated up front; longer runs wrap around.
ROUNDS_GENERATED = 40
QUERY_EVERY = 8

SETUP_CODE = (
    "import numpy, repro\n"
    "s = repro.build_summary('min-merge', buckets=32, backend='soa')\n"
    "s.extend(numpy.arange(64))\n"
    "print('accepted', flush=True)\n"
)


def _setup_seconds() -> float:
    """Launch-to-first-accepted-extend of a fresh interpreter (median)."""
    samples = []
    for _ in range(common.SETUP_LAUNCHES):
        start = time.monotonic()
        process = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE],
            cwd=common.ROOT,
            env=common.child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        line = process.stdout.readline()
        samples.append(time.monotonic() - start)
        process.stdout.close()
        if process.wait(timeout=60) != 0 or line.strip() != "accepted":
            raise GateError("setup launch did not accept its first extend")
    return common.median(samples)


class Feed:
    """One kernel's pair of summaries on one lane, and their timings."""

    def __init__(self, kernel, method, kwargs, family, lane, spec, metrics):
        from repro.api import build_summary

        self.kernel, self.method, self.family, self.lane = kernel, method, family, lane

        def build():
            return build_summary(
                method,
                buckets=spec.buckets,
                epsilon=spec.epsilon,
                universe=spec.universe,
                metrics=True if metrics else None,
                **kwargs,
            )

        self.by_extend = build()
        self.by_insert = build()
        self.extend_s = 0.0
        self.insert_s = 0.0
        self.query_s: List[float] = []
        self.items = 0
        self.timed_items = 0
        self.appends = 0


class Mix:
    """The feeds of one phase and the position in each family's stream."""

    def __init__(self, streams, spec, *, metrics: bool):
        self.streams = streams
        self.feeds = [
            Feed(*k, lane, spec, metrics=metrics) for k in KERNELS for lane in range(LANES)
        ]
        self.offsets = {(family, lane): 0 for family in FAMILIES for lane in range(LANES)}
        self.appends: List[float] = []
        self.queries: List[float] = []

    def round(self) -> int:
        """Feed every family its batches for one round; returns items fed."""
        clock = time.perf_counter
        items = 0
        for family in FAMILIES:
            size = BATCH[family]
            lanes = [
                [feed for feed in self.feeds if feed.family == family and feed.lane == lane]
                for lane in range(LANES)
            ]
            for b in range(ROUND_BATCHES[family]):
                lane = b % LANES
                stream = self.streams[family][lane]
                offset = self.offsets[(family, lane)]
                if offset + size > len(stream):
                    offset = 0
                batch = stream[offset : offset + size]
                self.offsets[(family, lane)] = offset + size
                scalars = batch.tolist()
                for feed in lanes[lane]:
                    t0 = clock()
                    feed.by_extend.extend(batch)
                    t1 = clock()
                    insert = feed.by_insert.insert
                    for value in scalars:
                        insert(value)
                    t2 = clock()
                    feed.extend_s += t1 - t0
                    feed.insert_s += t2 - t1
                    self.appends.append(t1 - t0)
                    self.appends.append(t2 - t1)
                    feed.items += size
                    feed.timed_items += size
                    feed.appends += 1
                    items += 2 * size
                    if feed.appends % QUERY_EVERY == 0:
                        for summary in (feed.by_extend, feed.by_insert):
                            t0 = clock()
                            summary.histogram()
                            elapsed = clock() - t0
                            feed.query_s.append(elapsed)
                            self.queries.append(elapsed)
        return items

    def warm_up(self) -> None:
        """One untimed round: its items stay fed, its timings are dropped."""
        self.round()
        self.appends.clear()
        self.queries.clear()
        for feed in self.feeds:
            feed.extend_s = feed.insert_s = 0.0
            feed.timed_items = 0
            feed.query_s.clear()

    def run(self, seconds: float) -> List[float]:
        """Timed rounds until ``seconds`` pass; each round's ingest rate.

        Every round does the same work, so the median of the round rates
        is an ingest rate that a burst of CPU time taken by a neighbour in
        one round does not move.
        """
        rates = []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            items = self.round()
            now = time.perf_counter()
            rates.append(items / (now - round_start))
            if now - start >= seconds:
                return rates

    def values(self, family: str, lane: int, count: int) -> np.ndarray:
        """The first ``count`` values the wrapping round loop fed a lane."""
        stream = self.streams[family][lane]
        usable = len(stream) - len(stream) % BATCH[family]
        reps, rest = divmod(count, usable)
        return np.concatenate([np.tile(stream[:usable], reps), stream[:rest]])

    def check(self, spec) -> float:
        """Gate the current state; returns the worst error ratio.

        The extend()-fed and insert()-fed summaries of every kernel, and
        the object and SoA min-merge backends, must be bit-identical; each
        family's error must be within its bound of the optimum over
        exactly the values it was fed.
        """
        ratios = []
        first: Dict[tuple, tuple] = {}
        for feed in self.feeds:
            a = feed.by_extend.histogram()
            b = feed.by_insert.histogram()
            if a.segments != b.segments or a.error != b.error:
                raise GateError(f"{feed.kernel}: extend() and insert() disagree")
            if feed.by_extend.items_seen != feed.items:
                raise GateError(f"{feed.kernel}: items_seen != items fed")
            lane = (feed.family, feed.lane)
            if lane in first:
                other, hist = first[lane]
                if a.segments != hist.segments or a.error != hist.error:
                    raise GateError(f"{feed.kernel} differs from {other} on lane {feed.lane}")
                continue
            first[lane] = (feed.kernel, a)
            values = self.values(feed.family, feed.lane, feed.items)
            ratios.append(
                gate.error_ratio(feed.method, a.error, values, spec.buckets, spec.epsilon)
            )
        return gate.worst_ratio(ratios)

    def summary_bytes(self) -> int:
        return sum(f.by_extend.memory_bytes() + f.by_insert.memory_bytes() for f in self.feeds)


def _streams(seed: int, report: dict):
    from repro.scenarios import generate_stream

    def lane_length(family):
        return BATCH[family] * ROUND_BATCHES[family] * ROUNDS_GENERATED // LANES

    longest = max(lane_length(f) for f in FAMILIES)
    count = len(FAMILIES) * LANES
    spec = common.seeded_spec(
        "steady-brownian", seed, length=count * longest, tenants={"streams": count}
    )
    report["inputs"] = common.provenance(spec)
    report["inputs"]["batch"] = BATCH
    streams = {
        family: [
            generate_stream(spec, i * LANES + lane)[: lane_length(family)]
            for lane in range(LANES)
        ]
        for i, family in enumerate(FAMILIES)
    }
    return spec, streams


def run(seed: int, seconds: float, trace: bool, report: dict) -> dict:
    spec, streams = _streams(seed, report)
    if trace:
        return _traced(streams, spec, seconds, report)
    setup = _setup_seconds()
    mix = Mix(streams, spec, metrics=False)
    mix.warm_up()
    # Error and space are read after the warm-up round, when every
    # summary holds the same values on every run of this seed.
    ratio = mix.check(spec)
    space = mix.summary_bytes()
    rates = mix.run(seconds)
    rss = common.vm_hwm_mb("self")
    mix.check(spec)
    report["attempted"] = len(mix.appends) + len(mix.queries)
    report["failed"] = 0
    report["samples"] = {"append": len(mix.appends), "query": len(mix.queries), "rounds": len(rates)}
    return {
        "setup_s": metric(setup, "s"),
        "ingest_items_s": metric(common.median(rates), "items/s"),
        "append_p50_ms": metric(common.block_percentile_ms(mix.appends, 50), "ms"),
        "append_p95_ms": metric(common.block_percentile_ms(mix.appends, 95), "ms"),
        "query_p50_ms": metric(common.block_percentile_ms(mix.queries, 50), "ms"),
        "query_p95_ms": metric(common.block_percentile_ms(mix.queries, 95), "ms"),
        "error_ratio_max": metric(ratio, "ratio"),
        "summary_bytes": metric(space, "bytes"),
        "rss_mb": metric(rss, "MB"),
    }


def _traced(streams, spec, seconds, report) -> dict:
    """Per-kernel timings, then the summaries' own counters.

    The first half times every call into each kernel with the
    instrumentation off; the second half repeats the loop with
    ``metrics=True`` to read the merge counters, and the ratio of the two
    ingest rates is the tracing overhead.
    """
    mix = Mix(streams, spec, metrics=False)
    mix.warm_up()
    rates = mix.run(seconds / 2)
    mix.check(spec)
    counted = Mix(streams, spec, metrics=True)
    counted.warm_up()
    traced_rates = counted.run(seconds / 2)
    counted.check(spec)
    report["attempted"] = len(mix.appends) + len(mix.queries)
    report["failed"] = 0
    report["samples"] = {"append": len(mix.appends), "query": len(mix.queries)}
    out: Dict[str, dict] = {}
    total = sum(f.extend_s + f.insert_s + sum(f.query_s) for f in mix.feeds)
    for kernel, *_ in KERNELS:
        feeds = [f for f in mix.feeds if f.kernel == kernel]
        timed = sum(f.timed_items for f in feeds)
        extend_s = sum(f.extend_s for f in feeds)
        insert_s = sum(f.insert_s for f in feeds)
        query_s = [q for f in feeds for q in f.query_s]
        merges = sum(
            c.by_extend.metrics.counter_totals()["merges"]
            for c in counted.feeds
            if c.kernel == kernel
        )
        items = sum(c.items for c in counted.feeds if c.kernel == kernel)
        out[f"core.extend_ns_per_item.{kernel}"] = metric(extend_s / timed * 1e9, "ns")
        out[f"core.insert_ns_per_item.{kernel}"] = metric(insert_s / timed * 1e9, "ns")
        out[f"core.time_share.{kernel}"] = metric(
            (extend_s + insert_s + sum(query_s)) / total, "ratio"
        )
        out[f"core.merges_per_kitem.{kernel}"] = metric(merges / items * 1e3, "count")
        out[f"core.histogram_us.{kernel}"] = metric(
            common.percentile_ms(query_s, 50) * 1e3, "us"
        )
    out["api.import_s"] = metric(common.import_seconds(), "s")
    out["trace.overhead_ratio"] = metric(
        common.median(traced_rates) / common.median(rates), "ratio"
    )
    report["family_time_share"] = {
        family: sum(
            out[f"core.time_share.{kernel}"]["value"] for kernel, _, _, f in KERNELS if f == family
        )
        for family in FAMILIES
    }
    report["dominant_layer"] = {"append": "repro.core", "query": "repro.core"}
    return out
