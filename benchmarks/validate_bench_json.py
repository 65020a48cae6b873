"""Schema check for the ``BENCH_*.json`` CI artifacts.

The benchmark gates upload machine-readable reports so runs stay
comparable across PRs -- which only works if the artifacts stay
well-formed.  This validator fails the job when a report:

* is not valid JSON, or smuggles in ``NaN``/``Infinity`` (legal for
  Python's ``json`` module, poison for everything downstream);
* contains any non-finite number anywhere in the tree;
* is missing the required keys for its artifact family (matched on
  file name, e.g. ``BENCH_LOAD.json``); or
* has a ``timeline`` whose timestamps are not monotone non-decreasing
  in event order, or a ``generated_unix`` stamp earlier than the events
  it claims to summarize.

Usage::

    python benchmarks/validate_bench_json.py BENCH_LOAD.json BENCH_SERVICE.json

Unknown ``BENCH_*.json`` names still get the generic checks (parse +
finite numbers), so new benchmarks are covered before anyone writes a
spec for them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Iterator, List, Tuple

#: Per-artifact-family required key paths.  ``a.b`` descends into dicts;
#: every listed path must exist.  Timeline ordering is expressed
#: separately because it constrains *values*, not presence.
SPECS = {
    "BENCH_LOAD.json": {
        "required": [
            "schema",
            "mode",
            "config.clients",
            "config.batch_size",
            "load.append.count",
            "load.append.p50_ms",
            "load.append.p99_ms",
            "load.query.count",
            "load.query.p50_ms",
            "load.query.p99_ms",
            "load.throughput_items_per_second",
            "verification.streams_verified",
            "verification.bit_identical",
            "slo",
            "slo_violations",
            "timeline",
            "generated_unix",
        ],
        "timeline": [
            "timeline.started_unix",
            "timeline.load_started_unix",
            "timeline.load_finished_unix",
            "timeline.verified_unix",
            "generated_unix",
        ],
    },
    "BENCH_SERVICE.json": {
        "required": [
            "items",
            "methods",
            "checkpoints",
            "wire.speedup",
            "wire.min_speedup",
            "wire.attempts",
            "wire.transports.json.seconds",
            "wire.transports.binary.seconds",
        ],
    },
    "BENCH_WIRE.json": {
        "required": [
            "codec.items",
            "codec.chunk",
            "codec.json.seconds",
            "codec.json.values_per_second",
            "codec.binary.seconds",
            "codec.binary.values_per_second",
            "codec.speedup",
            "heap.before.seconds",
            "heap.after.seconds",
            "heap.speedup",
            "hull.before.seconds",
            "hull.after.seconds",
            "hull.speedup",
        ],
    },
    "BENCH_SCENARIO.json": {
        "required": [
            "schema",
            "mode",
            "scenarios",
            "conformance.scenarios_checked",
            "conformance.cells_checked",
            "conformance.bit_identical",
            "conformance.mismatches",
            "generated_unix",
        ],
    },
    "BENCH_REST.json": {
        "required": [
            "schema",
            "items",
            "chunk",
            "max_ratio",
            "bit_identical",
            "transports.binary.p50_ms",
            "transports.binary.p99_ms",
            "transports.binary.items_per_second",
            "transports.rest.p50_ms",
            "transports.rest.p99_ms",
            "transports.rest.items_per_second",
            "p50_ratio",
            "gate",
            "generated_unix",
        ],
    },
    "BENCH_PR.json": {"required": []},
    "BENCH_PARALLEL.json": {"required": []},
}


class ValidationError(Exception):
    """One artifact failed one check."""


def _walk_numbers(node, path: str = "$") -> Iterator[Tuple[str, float]]:
    """Yield every numeric leaf with its JSON path."""
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        yield path, float(node)
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from _walk_numbers(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _walk_numbers(value, f"{path}[{i}]")


def _lookup(report: dict, path: str):
    """Resolve a dotted key path; raises ValidationError when absent."""
    node = report
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise ValidationError(f"missing required key {path!r}")
        node = node[part]
    return node


def _reject_constant(token: str) -> float:
    raise ValidationError(f"non-finite JSON constant {token!r}")


def validate_file(path: str) -> List[str]:
    """All violations for one artifact (empty list = clean)."""
    problems: List[str] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle, parse_constant=_reject_constant)
    except (OSError, ValueError, ValidationError) as exc:
        return [f"unreadable: {exc}"]

    for num_path, value in _walk_numbers(report):
        if not math.isfinite(value):
            problems.append(f"non-finite number at {num_path}: {value!r}")

    spec = SPECS.get(os.path.basename(path), {})
    for key_path in spec.get("required", []):
        try:
            _lookup(report, key_path)
        except ValidationError as exc:
            problems.append(str(exc))

    ordering = spec.get("timeline", [])
    stamps = []
    for key_path in ordering:
        try:
            value = _lookup(report, key_path)
        except ValidationError:
            continue  # absence already reported via "required"
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            stamps.append((key_path, float(value)))
    for (prev_key, prev), (cur_key, cur) in zip(stamps, stamps[1:]):
        if cur < prev:
            problems.append(
                f"timeline not monotone: {cur_key}={cur!r} precedes "
                f"{prev_key}={prev!r}"
            )
    return problems


def main(argv=None) -> int:
    """Validate each artifact; non-zero exit if any check fails."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="BENCH_*.json files to check")
    parser.add_argument(
        "--allow-missing",
        action="store_true",
        help="skip (rather than fail on) paths that do not exist",
    )
    args = parser.parse_args(argv)

    failed = False
    for path in args.paths:
        if args.allow_missing and not os.path.exists(path):
            print(f"{path}: skipped (missing)")
            continue
        problems = validate_file(path)
        if problems:
            failed = True
            for problem in problems:
                print(f"{path}: {problem}", file=sys.stderr)
        else:
            print(f"{path}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
