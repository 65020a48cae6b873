"""Per-item ingest throughput microbenchmarks (supports Figure 8).

Unlike the figure drivers (one-shot pedantic runs), these use
pytest-benchmark's repeated measurement to give stable per-item costs for
every streaming algorithm at the paper's B = 32 operating point.
"""

from __future__ import annotations

import pytest

from repro.data import brownian
from repro.harness.runner import make_algorithm

BUCKETS = 32
EPSILON = 0.2
UNIVERSE = 1 << 15

#: (name, stream length) -- slower algorithms get shorter streams so each
#: benchmark round stays subsecond.
CASES = [
    ("min-merge", 20_000),
    ("min-increment", 10_000),
    ("rehist", 1_500),
    ("pwl-min-merge", 2_000),
    ("pwl-min-increment", 600),
    ("sliding-window", 2_000),
]


@pytest.fixture(scope="module")
def stream():
    return brownian(20_000)


@pytest.mark.parametrize("name,length", CASES, ids=[c[0] for c in CASES])
def test_ingest_throughput(benchmark, stream, name, length):
    values = stream[:length]

    def ingest():
        algo = make_algorithm(
            name,
            buckets=BUCKETS,
            epsilon=EPSILON,
            universe=UNIVERSE,
            window=length // 2,
        )
        algo.extend(values)
        return algo

    algo = benchmark(ingest)
    assert algo.items_seen == length
    benchmark.extra_info["items"] = length
    benchmark.extra_info["per_item_us"] = (
        benchmark.stats.stats.mean / length * 1e6
    )
