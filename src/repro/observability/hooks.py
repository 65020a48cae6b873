"""Lifecycle hooks connecting summaries to a :class:`MetricsRegistry`.

:class:`SummaryMetrics` is the facade each instrumented summary holds: a
small bundle of pre-resolved counters plus one latency recorder, with one
``on_*`` method per lifecycle event.  Event semantics, shared by every
algorithm family (documented in ``docs/OBSERVABILITY.md``):

``on_insert``
    A stream value was accepted (a batch emits one event carrying its
    item count).
``on_merge``
    Work was absorbed into an existing bucket instead of growing the
    summary: a MIN-MERGE adjacent-pair merge, or a GREEDY-INSERT value
    absorbed into the open bucket of the answer-level summary.
``on_promotion``
    A MIN-INCREMENT ladder level died (its summary outgrew ``B``), so
    the answer promoted to a coarser target error.
``on_flush``
    A GK quantile sketch ran a compress sweep.
``on_evict``
    Summary state was dropped for reasons other than merging: a
    sliding-window bucket expired or was trimmed, or a fleet stream was
    removed.
``on_failure``
    A unit of work failed and was retried or rerouted: a parallel shard
    attempt whose worker died or raised (``repro.parallel.executor``).

Summaries store ``None`` when uninstrumented, so the disabled fast path
costs a single ``is None`` test; :func:`resolve_metrics` normalizes the
``metrics=`` constructor argument into that representation.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from repro.exceptions import InvalidParameterError
from repro.observability.metrics import Counter, MetricsRegistry

__all__ = ["COUNTER_NAMES", "SummaryMetrics", "resolve_metrics"]

#: The lifecycle counters every :class:`SummaryMetrics` facade owns, in the
#: order they appear in :meth:`SummaryMetrics.counter_totals`.
COUNTER_NAMES = (
    "inserts",
    "merges",
    "promotions",
    "flushes",
    "evictions",
    "failures_retried",
    "query_cache_hits",
    "query_cache_misses",
)


class SummaryMetrics:
    """Per-summary instrumentation facade over a :class:`MetricsRegistry`.

    Parameters
    ----------
    registry:
        Registry to record into; a private one is created when omitted.
        Passing a shared registry aggregates events across summaries
        (counters with equal names are the same object).
    prefix:
        Optional name prefix (``"<prefix>inserts"`` etc.) for telling
        several summaries apart inside one registry.
    latency_buckets:
        Bucket budget of the insert-latency timeline histogram.
    """

    __slots__ = (
        "registry",
        "prefix",
        "inserts",
        "merges",
        "promotions",
        "flushes",
        "evictions",
        "failures_retried",
        "query_cache_hits",
        "query_cache_misses",
        "insert_latency",
    )

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        *,
        prefix: str = "",
        latency_buckets: int = 16,
    ):
        if registry is None:
            registry = MetricsRegistry()
        self.registry = registry
        self.prefix = prefix
        self.inserts = registry.counter(prefix + "inserts")
        self.merges = registry.counter(prefix + "merges")
        self.promotions = registry.counter(prefix + "promotions")
        self.flushes = registry.counter(prefix + "flushes")
        self.evictions = registry.counter(prefix + "evictions")
        self.failures_retried = registry.counter(prefix + "failures_retried")
        self.query_cache_hits = registry.counter(prefix + "query_cache_hits")
        self.query_cache_misses = registry.counter(
            prefix + "query_cache_misses"
        )
        self.insert_latency = registry.latency(
            prefix + "insert_latency", buckets=latency_buckets
        )

    # -- lifecycle events --------------------------------------------------

    def on_insert(self, n: int = 1, *, latency: Optional[float] = None) -> None:
        """``n`` values accepted; ``latency`` is the insert's wall time (s)."""
        self.inserts.value += n
        if latency is not None:
            self.insert_latency.record(latency)

    def on_merge(self, n: int = 1) -> None:
        """``n`` merge events (pair merges / open-bucket absorptions)."""
        self.merges.value += n

    def on_promotion(self, n: int = 1) -> None:
        """``n`` ladder levels died; the answer moved to a coarser error."""
        self.promotions.value += n

    def on_flush(self, items: int = 0) -> None:
        """One GK compress sweep that folded ``items`` tuples."""
        self.flushes.value += 1

    def on_evict(self, n: int = 1) -> None:
        """``n`` buckets/streams dropped by expiry, trimming, or removal."""
        self.evictions.value += n

    def on_failure(self, n: int = 1) -> None:
        """``n`` failed work attempts that were retried or rerouted."""
        self.failures_retried.value += n

    def on_query_cache(self, hit: bool, n: int = 1) -> None:
        """``n`` engine histogram queries served from (or filling) the
        epoch-keyed query cache (see ``StreamEngine.histogram``)."""
        if hit:
            self.query_cache_hits.value += n
        else:
            self.query_cache_misses.value += n

    # -- aggregation across shards / children ------------------------------

    def counter_totals(self) -> dict:
        """The lifecycle counter values as a plain dict.

        The shape :meth:`absorb_counters` accepts, so per-shard totals can
        cross a process boundary as JSON-safe data and be folded into a
        combined summary's facade.
        """
        return {name: getattr(self, name).value for name in COUNTER_NAMES}

    def absorb_counters(self, totals: Mapping[str, int]) -> None:
        """Add child/shard counter totals into this facade.

        Used by the aggregation merge functions and the parallel ingest
        executor: when summaries of stream segments are combined, their
        lifecycle counters sum (latency timelines stay process-local and
        are *not* merged).  Keys must name counters from
        :data:`COUNTER_NAMES`.
        """
        for name, value in totals.items():
            counter = getattr(self, name, None)
            if not isinstance(counter, Counter):
                raise InvalidParameterError(
                    f"unknown summary counter {name!r}; expected one of "
                    f"{', '.join(COUNTER_NAMES)}"
                )
            counter.incr(int(value))

    # -- gauge wiring ------------------------------------------------------

    def bind_gauges(self, summary) -> None:
        """Attach lazily-read gauges for the summary's current state.

        Binds whatever the summary exposes out of ``memory_bytes`` /
        ``bucket_count`` / ``alive_levels``; gauges are evaluated only at
        snapshot time, so this adds nothing to the ingest path.  Re-binding
        (for example after a checkpoint restore) replaces the sources.
        """
        memory = getattr(summary, "memory_bytes", None)
        if callable(memory):
            self.registry.gauge(self.prefix + "memory_bytes", source=memory)
        if hasattr(type(summary), "bucket_count"):
            self.registry.gauge(
                self.prefix + "bucket_count",
                source=lambda s=summary: s.bucket_count,
            )
        if hasattr(type(summary), "alive_levels"):
            self.registry.gauge(
                self.prefix + "alive_levels",
                source=lambda s=summary: len(s.alive_levels),
            )

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data snapshot of the underlying registry."""
        return self.registry.snapshot()

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """Registry snapshot as JSON."""
        return self.registry.to_json(indent=indent)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SummaryMetrics(prefix={self.prefix!r}, {self.registry!r})"


def resolve_metrics(
    metrics: Union[None, bool, MetricsRegistry, SummaryMetrics],
    *,
    prefix: str = "",
) -> Optional[SummaryMetrics]:
    """Normalize a constructor ``metrics=`` argument.

    Accepts ``None``/``False`` (instrumentation off -- the result is
    ``None`` so hot paths can use a bare ``is None`` test), ``True`` (a
    private registry), a shared :class:`MetricsRegistry`, or an existing
    :class:`SummaryMetrics` facade.
    """
    if metrics is None or metrics is False:
        return None
    if metrics is True:
        return SummaryMetrics(prefix=prefix)
    if isinstance(metrics, MetricsRegistry):
        return SummaryMetrics(metrics, prefix=prefix)
    if isinstance(metrics, SummaryMetrics):
        return metrics
    raise InvalidParameterError(
        "metrics must be None, a bool, a MetricsRegistry, or a "
        f"SummaryMetrics, got {type(metrics).__name__}"
    )
