"""Differential conformance: every ingest path must tell the same story.

For one (scenario, method) pair the matrix runs every applicable cell --

* serial scalar ingest;
* serial batched ingest (the spec's arrival schedule);
* parallel sharded ingest (``workers=2``), plus the serial
  merge-of-shards reference it must reproduce;

-- and then asserts, per stream:

1. **bit-identity within the serial family**: scalar and batched ingest
   produce identical segments, error, and tie-breaks;
2. **bit-identity within the parallel family**: the pooled run equals
   the deterministic serial merge-of-shards reference (the same merge
   schedule computed without a pool) -- the parallel path may legally
   differ from single-pass serial (a different, equally valid merge
   order), but never from its own reference;
3. **bounded error everywhere**: every cell's realized error and bucket
   count respect the method's guarantee against the exact offline oracle
   (:func:`repro.offline.optimal.optimal_error`, cross-validated in the
   test suite against the independent O(n^2 B) DP).

Scenarios with a fault table additionally run the crash -> recover
cycle (via :class:`~repro.scenarios.ScenarioRunner`) and require
bit-identical recovery.  :func:`run_conformance` returns a
:class:`ConformanceResult`; :func:`check_conformance` raises
:class:`ConformanceError` with the offending cells instead -- the form
CI and the ``scenario run --conformance`` CLI consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api import PARALLEL_METHODS, build_summary, guarantee_bounds
from repro.exceptions import ReproError
from repro.offline.optimal import optimal_error
from repro.scenarios.generate import generate, schedules
from repro.scenarios.runner import _TOLERANCE, ScenarioRunner
from repro.scenarios.spec import ScenarioSpec

#: Worker count of the parallel conformance cells.
CONFORMANCE_WORKERS = 2


class ConformanceError(ReproError):
    """At least one conformance cell disagreed or broke its bound."""


@dataclass(frozen=True)
class Fingerprint:
    """The bit-identity comparison form of one run's histogram."""

    segments: Tuple[Tuple[int, int, float, float], ...]
    error: float

    @classmethod
    def of(cls, histogram) -> "Fingerprint":
        """Fingerprint a histogram's segments, error, and tie-breaks."""
        return cls(
            segments=tuple(
                (s.beg, s.end, s.left, s.right) for s in histogram.segments
            ),
            error=histogram.error,
        )


@dataclass
class ConformanceResult:
    """Everything the matrix measured for one (scenario, method) pair."""

    scenario: str
    method: str
    #: ``{stream: {cell: fingerprint}}`` for every executed cell.
    cells: Dict[str, Dict[str, Fingerprint]] = field(default_factory=dict)
    #: Human-readable violations (empty = conformant).
    mismatches: List[str] = field(default_factory=list)
    #: ``{stream: oracle_error}`` from the offline optimum.
    oracles: Dict[str, float] = field(default_factory=dict)
    #: Fault-recovery verdict per stream (None = scenario has no faults).
    recovered_identical: Optional[bool] = None

    @property
    def ok(self) -> bool:
        """True when every cell agreed and every bound held."""
        return not self.mismatches

    @property
    def cell_count(self) -> int:
        """Total executed cells across all streams."""
        return sum(len(c) for c in self.cells.values())

    def to_dict(self) -> dict:
        """Plain-data summary (feeds ``BENCH_SCENARIO.json``)."""
        return {
            "scenario": self.scenario,
            "method": self.method,
            "streams": len(self.cells),
            "cells": self.cell_count,
            "ok": self.ok,
            "mismatches": self.mismatches,
            "recovered_identical": self.recovered_identical,
        }


def _run_serial(
    spec: ScenarioSpec,
    method: str,
    ingest: str,
    values: np.ndarray,
    schedule: List[int],
):
    summary = build_summary(
        method,
        buckets=spec.buckets,
        epsilon=spec.epsilon,
        universe=spec.universe,
        window=spec.window,
    )
    if ingest == "scalar":
        for v in values.tolist():
            summary.insert(v)
    else:
        offset = 0
        for size in schedule:
            summary.extend(values[offset : offset + size])
            offset += size
    return summary.histogram()


def _run_parallel(spec: ScenarioSpec, method: str, values):
    from repro.parallel import ParallelSummarizer

    summarizer = ParallelSummarizer(
        method,
        buckets=spec.buckets,
        workers=CONFORMANCE_WORKERS,
        serial_cutoff=1,
    )
    live = summarizer.summarize(values).histogram()
    reference = summarizer.reference(values).histogram()
    return live, reference


def run_conformance(
    spec: ScenarioSpec,
    method: str = "min-merge",
    *,
    parallel: bool = True,
) -> ConformanceResult:
    """Execute the full matrix for one scenario; never raises on mismatch."""
    result = ConformanceResult(scenario=spec.name, method=method)
    streams = generate(spec)
    stream_schedules = schedules(spec)
    bounds = guarantee_bounds(
        method,
        buckets=spec.buckets,
        epsilon=spec.epsilon,
        windowed=spec.window is not None,
    )

    for name, values in streams.items():
        cells: Dict[str, Fingerprint] = {}
        schedule = stream_schedules[name]
        for ingest in ("scalar", "batch"):
            cell = f"serial/{ingest}"
            hist = _run_serial(spec, method, ingest, values, schedule)
            cells[cell] = Fingerprint.of(hist)
            _check_bound(result, spec, name, cell, hist, values, bounds)
        if parallel and method in PARALLEL_METHODS and spec.window is None:
            live, ref = _run_parallel(spec, method, values)
            cells["parallel/pool"] = Fingerprint.of(live)
            cells["parallel/reference"] = Fingerprint.of(ref)
            _check_bound(result, spec, name, "parallel/pool", live, values, bounds)
        result.cells[name] = cells
        _check_identity(result, name, cells)

    if spec.faults:
        report = ScenarioRunner(target="local").run(spec, method)
        verdicts = [s.recovered_identical for s in report.streams]
        result.recovered_identical = all(v is True for v in verdicts)
        if not result.recovered_identical:
            result.mismatches.append(
                f"{spec.name}: fault-schedule recovery was not "
                f"bit-identical (per-stream verdicts: {verdicts})"
            )
    return result


def _check_bound(
    result: ConformanceResult,
    spec: ScenarioSpec,
    stream: str,
    cell: str,
    hist,
    values: np.ndarray,
    bounds: Tuple[float, int],
) -> None:
    factor, bucket_limit = bounds
    if len(hist) > bucket_limit:
        result.mismatches.append(
            f"{stream} [{cell}]: {len(hist)} buckets exceed the bound of "
            f"{bucket_limit}"
        )
    covered = values[hist.beg : hist.end + 1].tolist()
    oracle = result.oracles.get(stream)
    if oracle is None or spec.window is not None:
        oracle = optimal_error(covered, spec.buckets)
        result.oracles.setdefault(stream, oracle)
    true_error = hist.max_error_against(covered)
    if true_error > factor * oracle + _TOLERANCE:
        result.mismatches.append(
            f"{stream} [{cell}]: error {true_error!r} exceeds bound "
            f"{factor} x oracle {oracle!r}"
        )


def _check_identity(
    result: ConformanceResult, stream: str, cells: Dict[str, Fingerprint]
) -> None:
    serial = {k: v for k, v in cells.items() if k.startswith("serial/")}
    anchor_name = next(iter(serial))
    anchor = serial[anchor_name]
    for cell, print_ in serial.items():
        if print_ != anchor:
            result.mismatches.append(
                f"{stream}: {cell} differs from {anchor_name} "
                f"(error {print_.error!r} vs {anchor.error!r}, "
                f"{len(print_.segments)} vs {len(anchor.segments)} segments)"
            )
    reference = cells.get("parallel/reference")
    if reference is not None:
        for cell, print_ in cells.items():
            if cell.startswith("parallel/") and cell != "parallel/reference":
                if print_ != reference:
                    result.mismatches.append(
                        f"{stream}: {cell} differs from the serial "
                        f"merge-of-shards reference"
                    )


def check_conformance(
    spec: ScenarioSpec, method: str = "min-merge", **kwargs
) -> ConformanceResult:
    """Run the matrix; raise :class:`ConformanceError` on any violation."""
    result = run_conformance(spec, method, **kwargs)
    if not result.ok:
        raise ConformanceError(
            f"scenario {spec.name!r} x {method}: "
            f"{len(result.mismatches)} violation(s):\n  "
            + "\n  ".join(result.mismatches)
        )
    return result
