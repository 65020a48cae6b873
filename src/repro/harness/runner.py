"""Feed streams to summaries and collect the measurements the paper plots.

Every streaming summary in this library shares the small informal protocol
``extend(values)`` / ``error`` / ``memory_bytes()``; :func:`run_stream`
drives one summary over one stream and reports the error, the accounted
memory, the wall-clock time, and (where the summary can materialize one)
the bucket count of the answer histogram.

:func:`make_algorithm` is the factory the experiment drivers and the CLI
share: it builds a fresh summary from a short algorithm name, so a single
string like ``"min-merge"`` identifies an algorithm everywhere in the
harness, the benchmarks, and the command line.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from repro.baselines.rehist import RehistHistogram
from repro.core.batch import as_batch_array
from repro.core.min_increment import MinIncrementHistogram
from repro.core.min_merge import MinMergeHistogram
from repro.core.pwl_min_increment import PwlMinIncrementHistogram
from repro.core.pwl_min_merge import PwlMinMergeHistogram
from repro.core.sliding_window import SlidingWindowMinIncrement
from repro.core.sliding_window_pwl import SlidingWindowPwlMinIncrement
from repro.exceptions import InvalidParameterError

def _need_window(cfg: dict, name: str) -> int:
    if cfg["window"] is None:
        raise InvalidParameterError(
            f"the {name} algorithm needs a window length"
        )
    return cfg["window"]


def _make_min_merge(cfg):
    return MinMergeHistogram(buckets=cfg["buckets"], metrics=cfg["metrics"])


def _make_min_increment(cfg):
    return MinIncrementHistogram(
        buckets=cfg["buckets"], epsilon=cfg["epsilon"],
        universe=cfg["universe"], metrics=cfg["metrics"],
    )


def _make_rehist(cfg):
    return RehistHistogram(
        buckets=cfg["buckets"], epsilon=cfg["epsilon"],
        universe=cfg["universe"], metrics=cfg["metrics"],
    )


def _make_pwl_min_merge(cfg):
    return PwlMinMergeHistogram(
        buckets=cfg["buckets"], hull_epsilon=cfg["hull_epsilon"],
        metrics=cfg["metrics"],
    )


def _make_pwl_min_increment(cfg):
    return PwlMinIncrementHistogram(
        buckets=cfg["buckets"], epsilon=cfg["epsilon"],
        universe=cfg["universe"], hull_epsilon=cfg["hull_epsilon"],
        metrics=cfg["metrics"],
    )


def _make_sliding_window(cfg):
    return SlidingWindowMinIncrement(
        buckets=cfg["buckets"], epsilon=cfg["epsilon"],
        universe=cfg["universe"],
        window=_need_window(cfg, "sliding-window"), metrics=cfg["metrics"],
    )


def _make_sliding_window_pwl(cfg):
    return SlidingWindowPwlMinIncrement(
        buckets=cfg["buckets"], epsilon=cfg["epsilon"],
        universe=cfg["universe"],
        window=_need_window(cfg, "sliding-window-pwl"),
        hull_epsilon=cfg["hull_epsilon"], metrics=cfg["metrics"],
    )


#: Registry mapping algorithm names to summary factories.  Each factory
#: receives the normalized configuration dict of :func:`make_algorithm`.
ALGORITHM_FACTORIES = {
    "min-merge": _make_min_merge,
    "min-increment": _make_min_increment,
    "rehist": _make_rehist,
    "pwl-min-merge": _make_pwl_min_merge,
    "pwl-min-increment": _make_pwl_min_increment,
    "sliding-window": _make_sliding_window,
    "sliding-window-pwl": _make_sliding_window_pwl,
}

#: Algorithm registry names accepted by :func:`make_algorithm`.
ALGORITHM_NAMES = tuple(ALGORITHM_FACTORIES)


@dataclass(frozen=True)
class RunResult:
    """Measurements from one streaming run."""

    algorithm: str
    items: int
    seconds: float
    memory_bytes: int
    error: float
    buckets: Optional[int]
    metrics: Optional[dict] = None

    @property
    def items_per_second(self) -> float:
        """Ingest throughput (items/s)."""
        if self.seconds <= 0.0:
            return float("inf")
        return self.items / self.seconds


def make_algorithm(
    name: str,
    *,
    buckets: int,
    epsilon: float = 0.2,
    universe: int = 1 << 15,
    window: Optional[int] = None,
    hull_epsilon: Optional[float] = 0.1,
    metrics=None,
):
    """Build a fresh summary by registry name.

    ``window`` is only consulted by the sliding-window algorithms;
    ``hull_epsilon`` only by the PWL algorithms.  ``metrics`` opts the
    summary into instrumentation (``True``, a shared
    :class:`~repro.observability.MetricsRegistry`, or a
    :class:`~repro.observability.SummaryMetrics`; see
    ``docs/OBSERVABILITY.md``).
    """
    factory = ALGORITHM_FACTORIES.get(name)
    if factory is None:
        known = ", ".join(ALGORITHM_NAMES)
        raise InvalidParameterError(
            f"unknown algorithm {name!r}; known algorithms: {known}"
        )
    cfg = {
        "buckets": buckets,
        "epsilon": epsilon,
        "universe": universe,
        "window": window,
        "hull_epsilon": hull_epsilon,
        "metrics": metrics,
    }
    return factory(cfg)


def run_stream(
    algorithm, values: Sequence, *, name: Optional[str] = None
) -> RunResult:
    """Stream ``values`` through ``algorithm`` and measure the outcome.

    When the summary is instrumented (``metrics=`` at construction), the
    result carries a snapshot of its registry in ``RunResult.metrics``.
    """
    label = name if name is not None else type(algorithm).__name__
    # Coerce once up front so every run (and the timer) sees the chunked
    # batch-ingest path when the input is batchable; scalar fallback inputs
    # stream through extend() unchanged.
    batched = as_batch_array(values)
    stream = values if batched is None else batched
    start = time.perf_counter()
    algorithm.extend(stream)
    elapsed = time.perf_counter() - start
    flush = getattr(algorithm, "flush", None)
    if callable(flush):
        flush()
    buckets: Optional[int]
    try:
        buckets = len(algorithm.histogram())
    except TypeError:
        # REHIST materializes histograms only from the original values.
        buckets = len(algorithm.histogram(values))
    summary_metrics = getattr(algorithm, "metrics", None)
    return RunResult(
        algorithm=label,
        items=len(values),
        seconds=elapsed,
        memory_bytes=algorithm.memory_bytes(),
        error=algorithm.error,
        buckets=buckets,
        metrics=(
            summary_metrics.snapshot() if summary_metrics is not None else None
        ),
    )


def run_streams(
    jobs: Sequence[Mapping],
    *,
    workers: Union[None, int, str] = None,
) -> list:
    """Run a grid of independent ``(algorithm config, stream)`` jobs.

    Each job is a mapping with a ``"values"`` sequence, an ``"algorithm"``
    registry name, optionally a ``"name"`` label for the result row, and
    any :func:`make_algorithm` keyword (``buckets``, ``epsilon``,
    ``universe``, ``window``, ``hull_epsilon``, ``metrics``).  Every job
    builds its own summary, so the grid rows are independent and can be
    dispatched across a thread pool: ``workers=None`` (default) stays
    serial, an int pins the pool size, ``"auto"`` sizes to the CPU count.
    Results come back as :class:`RunResult` rows in job order for every
    ``workers`` setting.

    Wall-clock ``seconds`` of individual rows measure the summary's own
    ingest work; under a thread pool concurrent rows share cores (and,
    for pure-Python ingest paths, the GIL), so per-row timings are only
    comparable within a single ``workers`` setting.
    """
    # Imported here, not at module top: repro.parallel imports the
    # aggregation layer, which plain run_stream() callers never need.
    from repro.parallel.executor import map_tasks

    def _run_job(job: Mapping) -> RunResult:
        cfg = dict(job)
        values = cfg.pop("values")
        algorithm = cfg.pop("algorithm")
        label = cfg.pop("name", algorithm)
        summary = make_algorithm(algorithm, **cfg)
        return run_stream(summary, values, name=label)

    return map_tasks(_run_job, list(jobs), workers=workers)
