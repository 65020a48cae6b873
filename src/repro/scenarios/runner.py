"""Execute a :class:`ScenarioSpec` and measure it: the workload simulator.

:class:`ScenarioRunner` drives the workload a spec describes against one
of two targets:

* ``target="local"`` -- the library path: every tenant stream is built
  via :func:`repro.api.build_summary` (or, for one-shot parallel ingest,
  through ``workers=``) and fed batch-by-batch on the
  spec's arrival schedule, through the same ephemeral
  :class:`~repro.service.Session` route ``summarize()`` uses;
* ``target="service"`` -- the wire path: an ephemeral
  :class:`~repro.service.StreamServer` (or an existing endpoint via
  ``host``/``port``) ingests the same batches over a negotiated
  :class:`~repro.service.ServiceClient` connection.

Either way the result is a :class:`ScenarioReport`: per-stream error
verified against the exact offline oracle
(:func:`repro.offline.optimal.optimal_error`), the method's theoretical
bound checked, accounted memory, throughput, and per-batch append
latency percentiles reusing the load harness's
:func:`~repro.loadgen.summarize_latencies`.

Scenarios with a non-empty ``faults`` table additionally run the
checkpointed crash -> recover cycle (reusing
:class:`~repro.resilience.FaultPlan` and
:class:`~repro.resilience.CheckpointStore`) and record whether recovery
was bit-identical to the undisturbed run -- turning every fault scenario
into a standing resilience check.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api import PARALLEL_METHODS, build_summary, streaming_methods
from repro.exceptions import InjectedFaultError, InvalidParameterError
from repro.loadgen import LatencySummary, summarize_latencies
from repro.offline.optimal import optimal_error
from repro.scenarios.generate import generate, schedules
from repro.scenarios.spec import ScenarioSpec

#: Per-method (error-factor, bucket-factor) guarantees the report checks:
#: realized error <= factor * optimal B-bucket error, buckets used <=
#: bucket_factor * B.  The (1, 2) merge family trades buckets for
#: exactness; the (1+eps, 1) ladder family trades error for buckets.
_GUARANTEES = {
    "min-merge": (1.0, 2),
    "pwl-min-merge": (1.0, 2),
    "min-increment": (None, 1),  # None: 1 + spec.epsilon
    "pwl": (None, 1),
}

#: Numerical slack for the bound checks (float accumulation only; the
#: guarantees themselves are exact).
_TOLERANCE = 1e-9


@dataclass(frozen=True)
class StreamReport:
    """Everything measured for one tenant stream."""

    stream: str
    items: int
    batches: int
    buckets_used: int
    error: float
    true_error: float
    oracle_error: float
    error_bound: float
    bound_ok: bool
    memory_bytes: int
    elapsed_seconds: float
    append: LatencySummary
    recovered_identical: Optional[bool] = None

    @property
    def throughput_items_per_second(self) -> float:
        """Ingest rate over the stream's wall-clock run time."""
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.items / self.elapsed_seconds

    def to_dict(self) -> dict:
        """Plain-data form (feeds the CLI ``--json`` and bench reports)."""
        data = {
            "stream": self.stream,
            "items": self.items,
            "batches": self.batches,
            "buckets_used": self.buckets_used,
            "error": self.error,
            "true_error": self.true_error,
            "oracle_error": self.oracle_error,
            "error_bound": self.error_bound,
            "bound_ok": self.bound_ok,
            "memory_bytes": self.memory_bytes,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput_items_per_second": self.throughput_items_per_second,
            "append": self.append.to_dict(),
        }
        if self.recovered_identical is not None:
            data["recovered_identical"] = self.recovered_identical
        return data


@dataclass(frozen=True)
class ScenarioReport:
    """Aggregate outcome of one scenario run (``to_dict`` feeds JSON)."""

    scenario: str
    method: str
    target: str
    workers: Optional[int]
    buckets: int
    window: Optional[int]
    streams: Tuple[StreamReport, ...]
    elapsed_seconds: float
    faults_fired: Tuple[str, ...] = ()

    @property
    def items(self) -> int:
        """Total items ingested across all tenant streams."""
        return sum(s.items for s in self.streams)

    @property
    def all_bounds_ok(self) -> bool:
        """Every stream's realized error within its method's guarantee."""
        return all(s.bound_ok for s in self.streams)

    @property
    def worst_error_ratio(self) -> float:
        """Max realized-over-optimal error ratio across streams."""
        worst = 0.0
        for s in self.streams:
            if s.oracle_error > 0:
                worst = max(worst, s.true_error / s.oracle_error)
            elif s.true_error > 0:  # pragma: no cover - bound_ok catches it
                return float("inf")
        return worst

    def to_dict(self) -> dict:
        """Plain-data form (feeds the CLI ``--json`` and bench reports)."""
        return {
            "scenario": self.scenario,
            "method": self.method,
            "target": self.target,
            "workers": self.workers,
            "buckets": self.buckets,
            "window": self.window,
            "items": self.items,
            "elapsed_seconds": self.elapsed_seconds,
            "all_bounds_ok": self.all_bounds_ok,
            "worst_error_ratio": self.worst_error_ratio,
            "faults_fired": list(self.faults_fired),
            "streams": [s.to_dict() for s in self.streams],
        }


@dataclass
class _StreamRun:
    """Mutable scratch for one stream's execution."""

    name: str
    values: np.ndarray
    batches: List[np.ndarray]
    append_seconds: List[float] = field(default_factory=list)
    histogram: object = None
    memory_bytes: int = 0
    elapsed: float = 0.0
    recovered_identical: Optional[bool] = None


class ScenarioRunner:
    """Run scenario specs against the library or a live service.

    Parameters
    ----------
    target:
        ``"local"`` (default) or ``"service"`` (see module docs).
    workers:
        When set (> 1), local runs ingest each stream through the
        parallel one-shot path (merge-capable methods only) instead of
        the batch schedule -- the cross-path cell of the conformance
        matrix.  Latency percentiles then cover one sample per stream.
    host / port:
        An existing service endpoint for ``target="service"``; when
        omitted the runner boots (and tears down) an ephemeral
        single-process server.
    """

    def __init__(
        self,
        *,
        target: str = "local",
        workers: Optional[int] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
    ) -> None:
        if target not in ("local", "service"):
            raise InvalidParameterError(
                f'target must be "local" or "service", got {target!r}'
            )
        if workers is not None and workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        if target == "service" and workers is not None:
            raise InvalidParameterError(
                "workers= applies to local runs; a service shards via "
                "`serve --workers` instead"
            )
        self.target = target
        self.workers = workers
        self.host = host
        self.port = port

    # -- entry point ----------------------------------------------------------

    def run(self, spec: ScenarioSpec, method: str = "min-merge") -> ScenarioReport:
        """Execute ``spec`` with ``method``; returns the measured report."""
        if method not in streaming_methods():
            raise InvalidParameterError(
                f"scenario runs need a streaming method, got {method!r} "
                f"(streaming: {', '.join(streaming_methods())})"
            )
        if self.workers is not None and self.workers > 1:
            if method not in PARALLEL_METHODS:
                raise InvalidParameterError(
                    f"workers= needs a merge-capable method "
                    f"({', '.join(PARALLEL_METHODS)}), got {method!r}"
                )
            if spec.window is not None:
                raise InvalidParameterError(
                    "windowed scenarios cannot run with workers=: "
                    "sliding-window state is not mergeable"
                )
        runs = [
            _StreamRun(
                name=name,
                values=values,
                batches=_slice_batches(values, schedule),
            )
            for (name, values), schedule in zip(
                generate(spec).items(), schedules(spec).values()
            )
        ]
        started = time.perf_counter()
        if self.target == "service":
            self._run_service(spec, method, runs)
        else:
            for run in runs:
                self._run_local(spec, method, run)
        elapsed = time.perf_counter() - started
        faults_fired: Tuple[str, ...] = ()
        if spec.faults and self.target == "local":
            faults_fired = self._run_faulted(spec, method, runs)
        return ScenarioReport(
            scenario=spec.name,
            method=method,
            target=self.target,
            workers=self.workers,
            buckets=spec.buckets,
            window=spec.window,
            streams=tuple(
                self._report_stream(spec, method, run) for run in runs
            ),
            elapsed_seconds=elapsed,
            faults_fired=faults_fired,
        )

    # -- local execution ------------------------------------------------------

    def _build(self, spec: ScenarioSpec, method: str):
        return build_summary(
            method,
            buckets=spec.buckets,
            epsilon=spec.epsilon,
            universe=spec.universe,
            window=spec.window,
        )

    def _run_local(self, spec: ScenarioSpec, method: str, run: _StreamRun) -> None:
        started = time.perf_counter()
        if self.workers is not None and self.workers > 1:
            # One-shot parallel ingest: the whole stream in one timed call.
            from repro.api import summarize

            t0 = time.perf_counter()
            hist = summarize(
                run.values,
                spec.buckets,
                method=method,
                workers=self.workers,
            )
            run.append_seconds.append(time.perf_counter() - t0)
            run.histogram = hist
            run.memory_bytes = 0  # the shards are gone; nothing to account
        else:
            summary = self._build(spec, method)
            for batch in run.batches:
                t0 = time.perf_counter()
                summary.extend(batch)
                run.append_seconds.append(time.perf_counter() - t0)
            run.histogram = summary.histogram()
            run.memory_bytes = summary.memory_bytes()
        run.elapsed = time.perf_counter() - started

    # -- fault-schedule execution ---------------------------------------------

    def _run_faulted(
        self, spec: ScenarioSpec, method: str, runs: List[_StreamRun]
    ) -> Tuple[str, ...]:
        """Crash -> recover each stream under the spec's fault table.

        Ingest runs through a checkpointing store with the spec's
        :class:`~repro.resilience.FaultPlan`; the injected crash aborts
        mid-cycle, a fresh store recovers, ingestion finishes, and the
        recovered summary must be bit-identical to the undisturbed run.
        """
        from repro.checkpoint import state_dict
        from repro.resilience import CheckpointStore, FaultPlan

        fired: List[str] = []
        for run in runs:
            plan = FaultPlan(spec.faults)
            with tempfile.TemporaryDirectory(prefix="scenario-fault-") as root:
                store = CheckpointStore(root, journal=True, fault_plan=plan)
                summary = self._build(spec, method)
                crashed = False
                try:
                    for batch in run.batches:
                        store.ingest(summary, batch.tolist())
                        store.save(summary)
                except InjectedFaultError:
                    crashed = True
                fired.extend(plan.fired)
                if crashed:
                    fresh = CheckpointStore(root, journal=True)
                    summary = fresh.recover(
                        factory=lambda: self._build(spec, method)
                    )
                    rest = run.values[summary.items_seen :].tolist()
                    if rest:
                        summary.extend(rest)
                baseline = self._build(spec, method)
                baseline.extend(run.values)
                run.recovered_identical = state_dict(summary) == state_dict(
                    baseline
                )
        return tuple(fired)

    # -- service execution ----------------------------------------------------

    def _run_service(
        self, spec: ScenarioSpec, method: str, runs: List[_StreamRun]
    ) -> None:
        from repro.service import ServiceClient, StreamEngine, StreamServer

        engine = server = None
        host, port = self.host, self.port
        if port is None:
            engine = StreamEngine()
            server = StreamServer(engine).start_in_background()
            host, port = "127.0.0.1", server.port
        config = {
            "method": method,
            "buckets": spec.buckets,
            "universe": spec.universe,
        }
        if spec.window is not None:
            config["window"] = spec.window
        try:
            with ServiceClient(host or "127.0.0.1", port) as client:
                for run in runs:
                    started = time.perf_counter()
                    for batch in run.batches:
                        t0 = time.perf_counter()
                        client.append(run.name, batch, **config)
                        run.append_seconds.append(time.perf_counter() - t0)
                    result = client.query(run.name, drain=True)
                    run.histogram = result.histogram
                    stats = client.stats(run.name)
                    run.memory_bytes = int(stats["memory_bytes"])
                    run.elapsed = time.perf_counter() - started
        finally:
            if server is not None:
                server.stop()
            if engine is not None:
                engine.close()

    # -- verification ---------------------------------------------------------

    def _report_stream(
        self, spec: ScenarioSpec, method: str, run: _StreamRun
    ) -> StreamReport:
        hist = run.histogram
        # The histogram may cover only a suffix (sliding windows); verify
        # against exactly the values it claims to cover.
        covered = run.values[hist.beg : hist.end + 1].tolist()
        oracle = optimal_error(covered, spec.buckets)
        true_error = hist.max_error_against(covered)
        factor, _bucket_factor = _GUARANTEES.get(method, (None, 2))
        factor = (1.0 + spec.epsilon) if factor is None else factor
        bound = factor * oracle + _TOLERANCE
        return StreamReport(
            stream=run.name,
            items=len(run.values),
            batches=len(run.batches),
            buckets_used=len(hist),
            error=hist.error,
            true_error=true_error,
            oracle_error=oracle,
            error_bound=bound,
            bound_ok=true_error <= bound,
            memory_bytes=run.memory_bytes,
            elapsed_seconds=run.elapsed,
            append=summarize_latencies(run.append_seconds),
            recovered_identical=run.recovered_identical,
        )


def _slice_batches(values: np.ndarray, schedule: List[int]) -> List[np.ndarray]:
    """Cut one stream into its arrival batches (views, no copies)."""
    out = []
    offset = 0
    for size in schedule:
        out.append(values[offset : offset + size])
        offset += size
    return out


def run_scenario(
    spec: ScenarioSpec,
    method: str = "min-merge",
    **runner_kwargs,
) -> ScenarioReport:
    """One-call convenience: ``ScenarioRunner(**kwargs).run(spec, method)``."""
    return ScenarioRunner(**runner_kwargs).run(spec, method)


def reports_to_dict(reports: Dict[str, ScenarioReport]) -> dict:
    """Plain-data form of a batch of reports, keyed by scenario name."""
    return {name: report.to_dict() for name, report in reports.items()}
