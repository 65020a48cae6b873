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
from typing import Optional, Sequence

from repro.api import _construct
from repro.baselines.rehist import RehistHistogram
from repro.core.batch import as_batch_array
from repro.exceptions import InvalidParameterError

#: Harness algorithm names and the ``(method, windowed)`` entry of the
#: method table (:mod:`repro.api`) each builds.  ``rehist`` is the one
#: harness-only entry (``None``): its ``histogram()`` needs the raw
#: values, so it is not a streaming summary.
_ALGORITHMS = {
    "min-merge": ("min-merge", False),
    "min-increment": ("min-increment", False),
    "rehist": None,
    "pwl-min-merge": ("pwl-min-merge", False),
    "pwl-min-increment": ("pwl", False),
    "sliding-window": ("min-increment", True),
    "sliding-window-pwl": ("pwl", True),
}

#: Algorithm registry names accepted by :func:`make_algorithm`.
ALGORITHM_NAMES = tuple(_ALGORITHMS)


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
    if name not in _ALGORITHMS:
        known = ", ".join(ALGORITHM_NAMES)
        raise InvalidParameterError(
            f"unknown algorithm {name!r}; known algorithms: {known}"
        )
    if name == "rehist":
        return RehistHistogram(
            buckets=buckets, epsilon=epsilon, universe=universe,
            metrics=metrics,
        )
    method, windowed = _ALGORITHMS[name]
    if windowed and window is None:
        raise InvalidParameterError(
            f"the {name} algorithm needs a window length"
        )
    return _construct(
        method,
        buckets=buckets,
        epsilon=epsilon,
        universe=universe,
        window=window if windowed else None,
        hull_epsilon=hull_epsilon,
        metrics=metrics,
    )


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
