"""Wire codec and hotspot micro-profiles behind the binary fast path.

Three before/after comparisons, each keeping the "before" implementation
alive inside this benchmark so the profile stays reproducible after the
production code has moved on:

* **codec** -- encoding + decoding an append batch as a JSON request
  line (protocol 1) versus a binary ``OP_APPEND`` frame (protocol 2).
  This is the serialization share of the end-to-end speedup gated by
  ``bench_service_smoke.py``.
* **heap** -- pair-key maintenance in :class:`AddressableMinHeap`, the
  structure behind the MIN-MERGE test oracle
  (``tests/min_merge_reference.py``) and the L2 and relative-error
  merge loops; the MIN-MERGE kernel itself keeps its heap in
  ``repro.core.soa_heap``.  Before:
  every neighbour-key refresh was ``remove(handle)`` + ``push`` (two
  full sift chains plus handle churn) and a bucket merge retired three
  entries and pushed two.  After: ``update(handle, key)`` re-sifts in
  place, and the merge recycles the dying pair's entry
  (``update(handle, key, item=...)``), so a merge costs one pop and two
  sifts.  Keys are unique ``(error, position)`` tuples either way, so
  the extraction order -- and therefore the histogram -- is identical.
* **hull** -- ``StreamingHull.add``, the per-point cost of PWL ingest.
  Before: one ``cross()`` call (tuple packing + Python call) per turn
  test and two eagerly allocated undo buffers per add.  After: the
  cross product is inlined with the same IEEE operation order and the
  undo buffers are lazy, so the steady-state add allocates nothing.

Run::

    python benchmarks/bench_wire.py --json BENCH_WIRE.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.geometry.convex_hull import StreamingHull
from repro.geometry.point import cross
from repro.service import wire
from repro.structures.heap import AddressableMinHeap


def _dataset(n: int, universe: int = 4096) -> list:
    return [(37 * i + (i * i) % 89) % universe for i in range(n)]


def _rate(items: int, seconds: float) -> float:
    return items / seconds if seconds > 0 else float("inf")


# -- codec: JSON request line vs binary OP_APPEND frame ---------------------


def bench_codec(items: int, chunk: int) -> dict:
    """Time a full encode + decode round trip per transport, no socket."""
    values = _dataset(items)
    batch = np.asarray(values, dtype="<f8")
    meta = {"stream": "s", "method": "min-merge", "buckets": 16}

    start = time.perf_counter()
    for lo in range(0, items, chunk):
        line = (
            json.dumps(
                {"op": "append", "values": values[lo : lo + chunk], **meta},
                separators=(",", ":"),
            )
            + "\n"
        ).encode("utf-8")
        request = json.loads(line)
        # The server's per-item coercion is part of the JSON parse cost.
        decoded = [float(v) for v in request["values"]]
    json_seconds = time.perf_counter() - start
    assert decoded[-1] == float(values[-1])

    start = time.perf_counter()
    for lo in range(0, items, chunk):
        head, value_bytes = wire.encode_append_payload(
            meta, batch[lo : lo + chunk]
        )
        payload = head[wire.HEADER_BYTES :] + bytes(value_bytes)
        _decoded_meta, decoded = wire.decode_append_payload(payload)
    binary_seconds = time.perf_counter() - start
    assert decoded[-1] == float(values[-1])

    return {
        "items": items,
        "chunk": chunk,
        "json": {
            "seconds": json_seconds,
            "values_per_second": _rate(items, json_seconds),
        },
        "binary": {
            "seconds": binary_seconds,
            "values_per_second": _rate(items, binary_seconds),
        },
        "speedup": json_seconds / binary_seconds,
    }


# -- heap: remove+push (before) vs in-place update (after) ------------------


def _heap_fixture(pairs: int):
    """A heap of ``pairs`` entries keyed like FINDMIN pair keys."""
    heap = AddressableMinHeap()
    handles = [
        heap.push(((37 * i + (i * i) % 89) % 4096, i), i)
        for i in range(pairs)
    ]
    return heap, handles


def bench_heap(pairs: int, rounds: int) -> dict:
    """Neighbour-key refresh churn: the dominant FINDMIN operation."""
    heap, handles = _heap_fixture(pairs)
    start = time.perf_counter()
    for r in range(rounds):
        for i, handle in enumerate(handles):
            # Before: a refresh was remove + push, and the new handle had
            # to be threaded back into the bucket node.
            _key, item = heap.remove(handle)
            handles[i] = heap.push(((r * 31 + i * 17) % 4096, i), item)
    before_seconds = time.perf_counter() - start

    heap, handles = _heap_fixture(pairs)
    start = time.perf_counter()
    for r in range(rounds):
        for i, handle in enumerate(handles):
            # After: one in-place sift, handle preserved.
            heap.update(handle, ((r * 31 + i * 17) % 4096, i))
    after_seconds = time.perf_counter() - start
    heap.check_invariant()

    ops = pairs * rounds
    return {
        "pairs": pairs,
        "rounds": rounds,
        "before": {
            "seconds": before_seconds,
            "updates_per_second": _rate(ops, before_seconds),
        },
        "after": {
            "seconds": after_seconds,
            "updates_per_second": _rate(ops, after_seconds),
        },
        "speedup": before_seconds / after_seconds,
    }


# -- hull: reference add (before) vs inlined lazy add (after) ---------------


class _ReferenceHull(StreamingHull):
    """The pre-optimization ``add``: ``cross()`` calls + eager buffers."""

    __slots__ = ()

    def add(self, x, y) -> None:  # noqa: D102 - profiled reference
        lower, upper = self.lower, self.upper
        if lower and x <= lower[-1][0]:
            raise ValueError("x must be strictly increasing")
        p = (x, y)
        popped_lower = []
        popped_upper = []
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            popped_lower.append(lower.pop())
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) >= 0:
            popped_upper.append(upper.pop())
        lower.append(p)
        upper.append(p)
        self._count += 1
        self._last_popped = (popped_lower, popped_upper)


def bench_hull(points: int) -> dict:
    """Per-point ``add`` cost on the rough smoke dataset."""
    ys = _dataset(points)

    reference = _ReferenceHull()
    start = time.perf_counter()
    for i, y in enumerate(ys):
        reference.add(i, y)
    before_seconds = time.perf_counter() - start

    hull = StreamingHull()
    start = time.perf_counter()
    for i, y in enumerate(ys):
        hull.add(i, y)
    after_seconds = time.perf_counter() - start

    if hull.vertices() != reference.vertices():
        raise SystemExit("optimized hull diverged from the reference")
    hull.check_invariant()

    return {
        "points": points,
        "before": {
            "seconds": before_seconds,
            "adds_per_second": _rate(points, before_seconds),
        },
        "after": {
            "seconds": after_seconds,
            "adds_per_second": _rate(points, after_seconds),
        },
        "speedup": before_seconds / after_seconds,
    }


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--items", type=int, default=400_000)
    parser.add_argument("--chunk", type=int, default=5_000)
    parser.add_argument("--pairs", type=int, default=512)
    parser.add_argument("--rounds", type=int, default=400)
    parser.add_argument("--points", type=int, default=400_000)
    parser.add_argument(
        "--min-codec-speedup",
        type=float,
        default=3.0,
        help="required binary-over-JSON codec speedup (0 disables)",
    )
    parser.add_argument(
        "--json", default=None, help="also write the report to this path"
    )
    args = parser.parse_args(argv)

    codec = bench_codec(args.items, args.chunk)
    print(
        f"codec  json {codec['json']['values_per_second']:>13,.0f} values/s"
        f"   binary {codec['binary']['values_per_second']:>13,.0f} values/s"
        f"   speedup {codec['speedup']:.2f}x"
    )
    heap = bench_heap(args.pairs, args.rounds)
    print(
        f"heap   before {heap['before']['updates_per_second']:>11,.0f} upd/s"
        f"   after  {heap['after']['updates_per_second']:>13,.0f} upd/s"
        f"   speedup {heap['speedup']:.2f}x"
    )
    hull = bench_hull(args.points)
    print(
        f"hull   before {hull['before']['adds_per_second']:>11,.0f} adds/s"
        f"   after  {hull['after']['adds_per_second']:>13,.0f} adds/s"
        f"   speedup {hull['speedup']:.2f}x"
    )

    report = {"codec": codec, "heap": heap, "hull": hull}
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    if args.min_codec_speedup and codec["speedup"] < args.min_codec_speedup:
        print(
            f"codec speedup {codec['speedup']:.2f}x below the "
            f"{args.min_codec_speedup:g}x gate; offending report section:",
            file=sys.stderr,
        )
        print(
            json.dumps({"codec": codec}, indent=2, sort_keys=True),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
