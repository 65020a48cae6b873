"""Batch-ingest throughput: vectorized ``extend()`` vs the scalar loop.

The batch kernels (``repro.core.batch``) promise two things: byte-identical
summary state to the per-item ``insert()`` path, and a large throughput
win on contiguous chunks.  This file measures both -- items/sec for the
scalar loop and for one ``extend(ndarray)`` call -- and *guards* the
equivalence on randomized streams before trusting any timing.

Run directly for the standalone gate (used by CI's benchmark smoke job)::

    PYTHONPATH=src python benchmarks/bench_batch_ingest.py \
        --smoke --json BENCH_PR.json --min-speedup 2.0

or through pytest-benchmark (``make bench``) for repeated-measurement
statistics.  ``REPRO_BENCH_SCALE=paper`` raises the stream length to the
paper's n = 1e6, where the acceptance target is a >= 5x speedup for
MIN-MERGE and MIN-INCREMENT.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.data import brownian
from repro.harness.runner import make_algorithm

from conftest import PAPER_SCALE

BUCKETS = 32
EPSILON = 0.2
UNIVERSE = 1 << 15

FULL_ITEMS = 1_000_000
SMOKE_ITEMS = 60_000

#: Algorithms under the throughput gate.  The acceptance targets (>= 5x at
#: paper scale) apply to the two serial workhorses; the rest are reported
#: for visibility but not gated.  The PWL rows still run the batch-vs-scalar
#: equivalence guard: their ``extend()`` is the scalar loop (the PWL
#: GREEDY-INSERT summaries) or a tail-absorption fast path (PWL MIN-MERGE
#: with exact hulls), and either must leave the state ``insert()`` does.
GATED = ["min-merge", "min-increment"]
REPORTED = GATED + [
    "sliding-window",
    "pwl-min-increment",
    "pwl-min-merge",
    "sliding-window-pwl",
]


def _make(name: str, items: int):
    return make_algorithm(
        name,
        buckets=BUCKETS,
        epsilon=EPSILON,
        universe=UNIVERSE,
        window=items // 4,
    )


def _equivalence_guard(name: str, seed: int = 0, items: int = 4_000) -> None:
    """Fail loudly if batch and scalar ingest diverge on a random stream."""
    rng = np.random.default_rng(seed)
    data = rng.integers(0, UNIVERSE, items)
    scalar = _make(name, items)
    for v in data.tolist():
        scalar.insert(v)
    batched = _make(name, items)
    batched.extend(data)
    state = lambda s: (  # noqa: E731 - local one-liner
        s.items_seen,
        [(x.beg, x.end, x.left, x.right) for x in s.histogram()],
        s.error,
        s.memory_bytes(),
    )
    if state(scalar) != state(batched):
        raise AssertionError(
            f"{name}: batch ingest diverged from scalar ingest on a "
            f"randomized stream (seed {seed}); timings would be meaningless"
        )


def _measure(name: str, values: list, arr: np.ndarray) -> dict:
    items = len(values)
    scalar = _make(name, items)
    insert = scalar.insert
    start = time.perf_counter()
    for v in values:
        insert(v)
    scalar_s = time.perf_counter() - start

    batched = _make(name, items)
    start = time.perf_counter()
    batched.extend(arr)
    batch_s = time.perf_counter() - start

    assert scalar.items_seen == batched.items_seen == items
    return {
        "algorithm": name,
        "items": items,
        "scalar_items_per_sec": items / scalar_s,
        "batch_items_per_sec": items / batch_s,
        "speedup": scalar_s / batch_s,
    }


def run(items: int, min_speedup: float, json_path: Path | None) -> int:
    for name in REPORTED:
        _equivalence_guard(name)
    print(f"batch vs scalar ingest, brownian n={items}")
    values = brownian(items)
    arr = np.asarray(values)
    results = []
    failures = 0
    for name in REPORTED:
        row = _measure(name, values, arr)
        results.append(row)
        gated = name in GATED
        ok = (not gated) or row["speedup"] >= min_speedup
        if not ok:
            failures += 1
            # Surface the failing numbers in the job log itself, so a CI
            # gate failure is diagnosable without downloading artifacts.
            print(
                f"gate failure ({name}: speedup {row['speedup']:.2f}x "
                f"< {min_speedup:g}x); offending result:",
                file=sys.stderr,
            )
            print(json.dumps(row, indent=2, sort_keys=True), file=sys.stderr)
        print(
            f"{name:<24} scalar {row['scalar_items_per_sec'] / 1e3:9.1f}k/s   "
            f"batch {row['batch_items_per_sec'] / 1e6:7.2f}M/s   "
            f"speedup {row['speedup']:7.1f}x   "
            f"{'ok' if ok else 'FAIL'}{'' if gated else ' (ungated)'}"
        )
    if json_path is not None:
        payload = {
            "benchmark": "batch_ingest",
            "items": items,
            "min_speedup": min_speedup,
            "results": results,
        }
        json_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {json_path}")
    return 1 if failures else 0


# -- pytest-benchmark surface (make bench) --------------------------------

_BENCH_ITEMS = FULL_ITEMS if PAPER_SCALE else SMOKE_ITEMS


@pytest.fixture(scope="module")
def bench_stream():
    values = brownian(_BENCH_ITEMS)
    return values, np.asarray(values)


@pytest.mark.parametrize("name", REPORTED)
def test_equivalence_guard(name):
    _equivalence_guard(name)


@pytest.mark.parametrize("name", REPORTED)
def test_batch_ingest_speedup(benchmark, bench_stream, name):
    values, arr = bench_stream

    def ingest():
        algo = _make(name, len(values))
        algo.extend(arr)
        return algo

    algo = benchmark(ingest)
    assert algo.items_seen == len(values)
    row = _measure(name, values, arr)
    benchmark.extra_info.update(row)
    if name in GATED:
        # Paper-scale acceptance: >= 5x at n = 1e6; the quick profile
        # gates at the CI smoke threshold.
        floor = 5.0 if PAPER_SCALE else 2.0
        assert row["speedup"] >= floor, (
            f"{name}: batch speedup {row['speedup']:.1f}x below {floor}x "
            f"at n={len(values)}"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"use the small CI stream (n={SMOKE_ITEMS}) instead of n={FULL_ITEMS}",
    )
    parser.add_argument(
        "--items", type=int, default=None, help="override the stream length"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="fail if a gated algorithm's batch speedup is below this",
    )
    parser.add_argument(
        "--json", type=Path, default=None, help="write results to this JSON file"
    )
    args = parser.parse_args()
    items = args.items or (SMOKE_ITEMS if args.smoke else FULL_ITEMS)
    return run(items, args.min_speedup, args.json)


if __name__ == "__main__":
    raise SystemExit(main())
