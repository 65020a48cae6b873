"""Managing summaries for many concurrent streams (the StatStream scenario).

The paper's second motivation (Section 1): systems like StatStream monitor
thousands of time series at once and answer similarity queries from
compressed representations, so the per-stream summary must be tiny and the
manager must answer "who is closest to X?" without touching raw data.

:class:`StreamFleet` owns one summary per stream (any algorithm from the
harness registry), ingests values per stream or in lockstep rows, and
answers L-infinity similarity queries with *guaranteed bounds* derived
from the summaries alone (:func:`repro.metrics.errors.series_linf_distance`):
for histograms with errors ``e1``/``e2`` and reconstruction gap ``dhat``,
the true distance lies in ``[dhat - e1 - e2, dhat + e1 + e2]``.
:meth:`StreamFleet.nearest` ranks candidates by upper bound and reports
which are *provably* closer than the rest (their upper bound beats every
other lower bound).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Optional, Sequence, Union

from repro.core.histogram import Histogram
from repro.exceptions import InvalidParameterError
from repro.harness.runner import ALGORITHM_NAMES, make_algorithm
from repro.metrics.errors import series_linf_distance
from repro.observability.hooks import SummaryMetrics, resolve_metrics
from repro.parallel.executor import map_tasks


#: Harness algorithm names a fleet can hold: every one but ``rehist``.
_FLEET_ALGORITHMS = tuple(name for name in ALGORITHM_NAMES if name != "rehist")


class FleetStreamHandle:
    """A view onto one stream of a :class:`StreamFleet`.

    Mirrors the service layer's ``StreamHandle`` shape (append /
    histogram / items_seen / error), so code written against
    :class:`repro.service.Session` handles also reads naturally against
    a fleet.  Handles are cheap and stateless; fetch them with
    :meth:`StreamFleet.stream`.
    """

    __slots__ = ("_fleet", "_stream_id")

    def __init__(self, fleet: "StreamFleet", stream_id: Hashable) -> None:
        self._fleet = fleet
        self._stream_id = stream_id

    @property
    def stream_id(self) -> Hashable:
        """The stream's id within its fleet."""
        return self._stream_id

    @property
    def items_seen(self) -> int:
        """Values ingested into this stream so far."""
        return self._fleet.summary(self._stream_id).items_seen

    @property
    def error(self) -> float:
        """The stream summary's current error."""
        return self._fleet.error(self._stream_id)

    def append(self, values: Iterable) -> None:
        """Append a batch (vectorized when values is a list/ndarray)."""
        self._fleet.extend(self._stream_id, values)

    def insert(self, value) -> None:
        """Append one value."""
        self._fleet.insert(self._stream_id, value)

    def histogram(self) -> Histogram:
        """The stream's current histogram."""
        return self._fleet.histogram(self._stream_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FleetStreamHandle({self._stream_id!r})"


class StreamFleet:
    """One histogram summary per stream, with similarity queries on top.

    Parameters
    ----------
    buckets, epsilon, universe:
        Shared summary configuration (see :func:`make_algorithm`).
    algorithm:
        Harness name of the summary type (default ``"min-merge"``): any
        :func:`~repro.harness.runner.make_algorithm` name but ``"rehist"``,
        whose histograms need the raw values.
    window:
        Window length for the sliding-window algorithms.
    metrics:
        Opt-in instrumentation: ``True`` for a private registry, or a
        shared :class:`~repro.observability.MetricsRegistry`.  Every
        per-stream summary records into the *same* registry, so counters
        aggregate across the fleet; gauges report fleet totals.  Removing
        a stream counts as an eviction.

    Examples
    --------
    >>> fleet = StreamFleet(buckets=8)
    >>> for t in range(100):
    ...     fleet.insert_row({"a": t % 7, "b": t % 7, "c": 3 * (t % 5)})
    >>> low, high = fleet.distance_bounds("a", "b")
    >>> low == 0.0
    True
    """

    def __init__(
        self,
        buckets: int = 32,
        *,
        algorithm: str = "min-merge",
        epsilon: float = 0.2,
        universe: int = 1 << 15,
        window: Optional[int] = None,
        metrics=None,
    ):
        if algorithm not in _FLEET_ALGORITHMS:
            raise InvalidParameterError(
                f"algorithm {algorithm!r} cannot back a fleet stream; "
                f"fleet algorithms: {', '.join(_FLEET_ALGORITHMS)} "
                "(rehist builds histograms only from the raw values)"
            )
        self._config = {
            "buckets": buckets,
            "epsilon": epsilon,
            "universe": universe,
            "window": window,
        }
        self._algorithm = algorithm
        self._metrics = resolve_metrics(metrics)
        # Validate the configuration once, eagerly.
        make_algorithm(algorithm, **self._config)
        self._summaries: dict[Hashable, object] = {}
        if self._metrics is not None:
            self._bind_fleet_gauges()

    def _bind_fleet_gauges(self) -> None:
        """(Re)bind fleet-total gauges; fleet totals win over any
        per-summary bindings made when a stream's summary was built."""
        registry = self._metrics.registry
        prefix = self._metrics.prefix
        registry.gauge(prefix + "memory_bytes", source=self.memory_bytes)
        registry.gauge(prefix + "streams", source=self.__len__)

    # -- stream management -----------------------------------------------

    def __len__(self) -> int:
        return len(self._summaries)

    def __contains__(self, stream_id: Hashable) -> bool:
        return stream_id in self._summaries

    @property
    def ids(self) -> list:
        """Registered stream ids, in insertion order."""
        return list(self._summaries)

    def add_stream(self, stream_id: Hashable) -> None:
        """Register a stream explicitly (insert registers implicitly too)."""
        if stream_id in self._summaries:
            raise InvalidParameterError(f"stream {stream_id!r} already exists")
        if self._metrics is None:
            summary = make_algorithm(self._algorithm, **self._config)
        else:
            summary = make_algorithm(
                self._algorithm, metrics=self._metrics, **self._config
            )
        self._summaries[stream_id] = summary
        if self._metrics is not None:
            self._bind_fleet_gauges()

    @property
    def algorithm(self) -> str:
        """Registry name of the per-stream summary type."""
        return self._algorithm

    @property
    def config(self) -> dict:
        """Shared summary configuration (copy; buckets/epsilon/universe/window)."""
        return dict(self._config)

    def adopt_stream(self, stream_id: Hashable, summary) -> None:
        """Install a pre-built summary for a new stream (checkpoint restore).

        The summary must match the fleet's algorithm/configuration -- the
        fleet does not re-validate it -- and the id must be unused.  Used by
        :func:`repro.checkpoint.restore` to rebuild a fleet from per-stream
        checkpoints; fleets restored this way are uninstrumented (see the
        checkpoint instrumentation policy).
        """
        if stream_id in self._summaries:
            raise InvalidParameterError(f"stream {stream_id!r} already exists")
        self._summaries[stream_id] = summary
        if self._metrics is not None:
            self._bind_fleet_gauges()

    def stream(self, stream_id: Hashable) -> FleetStreamHandle:
        """A :class:`FleetStreamHandle` on the named stream.

        Registers the stream if new (same implicit-registration rule as
        :meth:`insert`/:meth:`extend`), then returns a cheap handle
        mirroring the service layer's per-stream API.
        """
        if stream_id not in self._summaries:
            self.add_stream(stream_id)
        return FleetStreamHandle(self, stream_id)

    def remove_stream(self, stream_id: Hashable) -> None:
        """Drop a stream and free its summary."""
        try:
            del self._summaries[stream_id]
        except KeyError:
            raise InvalidParameterError(
                f"unknown stream {stream_id!r}"
            ) from None
        if self._metrics is not None:
            self._metrics.on_evict()

    # -- ingestion ----------------------------------------------------------

    def insert(self, stream_id: Hashable, value) -> None:
        """Append one value to one stream (auto-registering it)."""
        summary = self._summaries.get(stream_id)
        if summary is None:
            self.add_stream(stream_id)
            summary = self._summaries[stream_id]
        summary.insert(value)

    def insert_row(self, row: Mapping) -> None:
        """Append one lockstep tick: ``{stream_id: value}`` for each stream.

        Similarity queries require equal index ranges, so fleets that will
        be queried should ingest in rows.
        """
        for stream_id, value in row.items():
            self.insert(stream_id, value)

    def extend(self, stream_id: Hashable, values: Iterable) -> None:
        """Append many values to one stream (auto-registering it).

        Delegates to the summary's own ``extend``, so lists and numeric
        ndarrays get the vectorized batch-ingest path.
        """
        summary = self._summaries.get(stream_id)
        if summary is None:
            self.add_stream(stream_id)
            summary = self._summaries[stream_id]
        summary.extend(values)

    def extend_rows(
        self,
        rows: Sequence[Mapping],
        *,
        workers: Union[None, int, str] = None,
    ) -> None:
        """Append a batch of lockstep ticks, optionally in parallel.

        ``rows`` is a sequence of ``{stream_id: value}`` mappings in tick
        order (the batched form of :meth:`insert_row`).  The batch is
        transposed into one per-stream column first, so every stream's
        values flow through its summary's vectorized ``extend`` instead of
        one ``insert`` per tick -- and because per-stream summaries are
        independent, the columns can be dispatched across a thread pool:
        ``workers="auto"`` uses one thread per stream up to the CPU count,
        an int pins the pool size, ``None`` (default) stays serial.
        Summary state is identical for every ``workers`` setting (each
        dispatched task touches only its own stream's summary); with a
        *shared* metrics registry the per-column counter bumps may
        interleave, but each column emits a single aggregated event, so
        contention is negligible in practice.
        """
        columns: dict[Hashable, list] = {}
        for row in rows:
            for stream_id, value in row.items():
                columns.setdefault(stream_id, []).append(value)
        # Registration mutates shared dicts; do it serially up front so the
        # dispatched column extends touch only their own summary.
        for stream_id in columns:
            if stream_id not in self._summaries:
                self.add_stream(stream_id)
        summaries = self._summaries
        map_tasks(
            lambda item: summaries[item[0]].extend(item[1]),
            list(columns.items()),
            workers=workers,
        )

    # -- queries -----------------------------------------------------------------

    def _summary(self, stream_id: Hashable):
        try:
            return self._summaries[stream_id]
        except KeyError:
            raise InvalidParameterError(
                f"unknown stream {stream_id!r}"
            ) from None

    def summary(self, stream_id: Hashable):
        """The live summary object of one stream (for checkpointing etc.)."""
        return self._summary(stream_id)

    def histogram(self, stream_id: Hashable) -> Histogram:
        """The current histogram of one stream."""
        return self._summary(stream_id).histogram()

    def error(self, stream_id: Hashable) -> float:
        """The current summary error of one stream."""
        return self._summary(stream_id).error

    @property
    def items_seen(self) -> int:
        """Total values ingested across all streams."""
        return sum(s.items_seen for s in self._summaries.values())

    @property
    def metrics(self) -> Optional[SummaryMetrics]:
        """Fleet-wide instrumentation facade, or ``None`` when off."""
        return self._metrics

    def total_memory_bytes(self) -> int:
        """Accounted memory across all summaries."""
        return sum(s.memory_bytes() for s in self._summaries.values())

    def memory_bytes(self) -> int:
        """Alias for :meth:`total_memory_bytes` (StreamingSummary spelling)."""
        return self.total_memory_bytes()

    def distance_bounds(self, first: Hashable, second: Hashable) -> tuple[float, float]:
        """Guaranteed ``(lower, upper)`` bounds on the L-inf distance."""
        return series_linf_distance(
            self.histogram(first), self.histogram(second)
        )

    def nearest(
        self, query_id: Hashable, *, k: int = 1
    ) -> list[tuple[Hashable, float, float]]:
        """The ``k`` streams with the smallest distance upper bound.

        Returns ``(stream_id, lower, upper)`` triples sorted by upper
        bound.  Any candidate whose upper bound is below every excluded
        candidate's lower bound is *provably* among the true k nearest.
        """
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        query_hist = self.histogram(query_id)
        ranked = []
        for stream_id, summary in self._summaries.items():
            if stream_id == query_id:
                continue
            low, high = series_linf_distance(query_hist, summary.histogram())
            ranked.append((high, low, stream_id))
        ranked.sort()
        return [(sid, low, high) for high, low, sid in ranked[:k]]

    def provably_nearest(self, query_id: Hashable) -> Optional[Hashable]:
        """The certified nearest neighbour, or None if summaries can't tell.

        Certified means the best candidate's distance *upper* bound is at
        most every other candidate's *lower* bound, so no refinement with
        raw data could change the answer.
        """
        candidates = self.nearest(query_id, k=len(self._summaries))
        if not candidates:
            return None
        best_id, _low, best_high = candidates[0]
        for other_id, low, _high in candidates[1:]:
            if low < best_high:
                return None
        return best_id
