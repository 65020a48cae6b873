"""Side-by-side comparison of every algorithm in the library.

Streams one dataset through MIN-MERGE, MIN-INCREMENT, REHIST, and the
PWL variants; prints error, memory, bucket count, and
throughput next to the exact offline optimum.  This is the library's
"executive summary" of the paper's Section 5 in one table.

Run with::

    python examples/compare_algorithms.py [dataset] [points]
"""

import sys

from repro import optimal_error
from repro.data import dataset_by_name
from repro.harness.runner import make_algorithm, run_stream

BUCKETS = 32
EPSILON = 0.2

ALGORITHMS = (
    "min-merge",
    "min-increment",
    "rehist",
    "pwl-min-merge",
    "pwl-min-increment",
)


def main() -> None:
    dataset = sys.argv[1] if len(sys.argv) > 1 else "merced"
    points = int(sys.argv[2]) if len(sys.argv) > 2 else 8192
    values = dataset_by_name(dataset).loader(points)
    best = optimal_error(values, BUCKETS)

    print(
        f"dataset={dataset}, n={points:,}, B={BUCKETS}, eps={EPSILON}; "
        f"optimal-{BUCKETS} error = {best:g}\n"
    )
    header = (
        f"{'algorithm':<24}{'error':>10}{'vs opt':>9}{'buckets':>9}"
        f"{'memory(B)':>11}{'items/s':>12}"
    )
    print(header)
    print("-" * len(header))
    for name in ALGORITHMS:
        algo = make_algorithm(name, buckets=BUCKETS, epsilon=EPSILON)
        result = run_stream(algo, values, name=name)
        ratio = result.error / best if best else float("inf")
        print(
            f"{name:<24}{result.error:>10,.0f}{ratio:>8.2f}x"
            f"{result.buckets:>9}{result.memory_bytes:>11,}"
            f"{result.items_per_second:>12,.0f}"
        )

    print(
        "\nNotes: min-merge holds 2B buckets, hence its sub-optimal error;"
        "\nPWL errors are not directly comparable to the serial optimum"
        "\n(they solve an easier fitting problem, so they can beat it)."
    )


if __name__ == "__main__":
    main()
