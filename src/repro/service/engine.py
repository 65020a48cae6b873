"""Multi-tenant streaming engine: many named streams, one process.

:class:`StreamEngine` is the stateful core of the service layer
(``docs/SERVICE.md``).  It owns any number of named streams ("tenants"),
each a streaming summary built by :func:`repro.api.build_summary`, and
provides:

* **Thread-safe ingest** -- ``append(stream_id, values)`` routes whole
  batches through the summaries' vectorized batch path.  With
  ``workers=0`` (default) batches apply inline under the stream's lock;
  with ``workers > 0`` they queue on a per-stream FIFO and a worker pool
  applies them in arrival order (one worker per stream at a time, so a
  stream's batches never interleave).
* **Bounded queues with admission control** -- each stream holds at most
  ``max_pending`` queued-but-unapplied items; an append that would
  exceed the bound raises :class:`~repro.exceptions.BackpressureError`
  *before* anything is enqueued, so a rejected batch is never partially
  ingested.
* **Snapshot-isolated queries** -- ``histogram(stream_id)`` runs under
  the same per-stream lock as batch application, so a query always sees
  a batch boundary: the summary after some whole prefix of the accepted
  batches, never a half-applied batch.
* **Crash-consistent checkpoints** -- with ``checkpoint_dir`` set, each
  stream gets its own :class:`~repro.resilience.CheckpointStore`
  (journal + atomic snapshot rotation) plus a ``stream.json`` manifest;
  snapshots fire every ``checkpoint_every`` applied items and a new
  engine pointed at the same directory recovers every stream bit for
  bit (snapshot + journal tail replay).
* **Per-tenant metrics** -- pass ``metrics=`` and every stream's summary
  is instrumented into one shared registry under a ``<stream_id>.``
  prefix, exported via ``stats()``.

The engine is synchronous and thread-safe; the asyncio wire front lives
in :mod:`repro.service.server` and calls into it from executor threads.
"""

from __future__ import annotations

import json
import os
import queue
import re
import threading
import time
import zlib
from collections import deque
from typing import Optional, Sequence

from repro.api import DEFAULT_UNIVERSE, build_summary, check_backend, streaming_methods
from repro.core.batch import coerce_batch
from repro.core.histogram import Histogram, HistogramMeta
from repro.exceptions import (
    BackpressureError,
    EmptySummaryError,
    InvalidParameterError,
    ReproError,
    UnknownStreamError,
)
from repro.observability.hooks import SummaryMetrics, resolve_metrics
from repro.observability.metrics import MetricsRegistry
from repro.resilience.store import CheckpointStore

_MANIFEST = "stream.json"
_SAFE_ID = re.compile(r"[^A-Za-z0-9._-]+")
_SHUTDOWN = object()


def _tenant_dirname(stream_id: str) -> str:
    """Filesystem-safe directory name for a stream id (collision-proof).

    Sanitizes to a readable slug and appends a CRC-32 of the exact id, so
    distinct ids that sanitize identically ("a/b" vs "a_b") still get
    distinct directories.
    """
    slug = _SAFE_ID.sub("_", stream_id)[:48] or "stream"
    return f"{slug}-{zlib.crc32(stream_id.encode('utf-8')):08x}"


class _Tenant:
    """One named stream: summary + lock + write queue + checkpoint store."""

    __slots__ = (
        "stream_id",
        "method",
        "buckets",
        "epsilon",
        "universe",
        "window",
        "summary",
        "lock",
        "qlock",
        "pending",
        "pending_items",
        "scheduled",
        "idle",
        "store",
        "since_snapshot",
        "last_generation",
        "recovered",
        "appends",
        "rejected",
        "queries",
        "checkpoints",
        "last_error",
        "attached",
        "epoch",
        "cached_epoch",
        "cached_hist",
        "cached_items",
    )

    def __init__(self, stream_id: str, method: str, summary) -> None:
        self.stream_id = stream_id
        self.method = method
        self.buckets = getattr(summary, "target_buckets", None)
        self.epsilon = getattr(summary, "epsilon", None)
        self.universe = getattr(summary, "universe", None)
        self.window = getattr(summary, "window", None)
        self.summary = summary
        # ``lock`` guards the summary + store (apply vs query); ``qlock``
        # guards the write queue bookkeeping and is never held across an
        # apply, so admission control stays responsive during long batches.
        self.lock = threading.Lock()
        self.qlock = threading.Lock()
        self.pending = deque()
        self.pending_items = 0
        self.scheduled = False
        self.idle = threading.Condition(self.qlock)
        self.store: Optional[CheckpointStore] = None
        self.since_snapshot = 0
        self.last_generation: Optional[int] = None
        self.recovered = False
        self.appends = 0
        self.rejected = 0
        self.queries = 0
        self.checkpoints = 0
        self.last_error: Optional[str] = None
        self.attached = False
        # Write epoch for query caching: bumped under ``lock`` on every
        # applied batch, so ``(stream, epoch)`` names an exact summary
        # state.  ``cached_epoch == -1`` means nothing cached; recovery,
        # adoption, and handoff all build a fresh _Tenant, which is what
        # invalidates the cache across ownership changes.
        self.epoch = 0
        self.cached_epoch = -1
        self.cached_hist: Optional[Histogram] = None
        self.cached_items = 0

    def manifest(self) -> dict:
        """The ``stream.json`` payload a future engine recovers from."""
        return {
            "stream_id": self.stream_id,
            "method": self.method,
            "buckets": self.buckets,
            "epsilon": self.epsilon,
            "universe": self.universe,
            "window": self.window,
        }


class StreamEngine:
    """Long-lived engine owning many named streams (see module docs).

    Parameters
    ----------
    checkpoint_dir:
        Root directory for per-stream checkpoint stores; ``None`` (the
        default) disables durability.  An existing directory is scanned
        on startup and every manifested stream is recovered (snapshot +
        journal tail) before the engine accepts traffic.
    checkpoint_every:
        Snapshot a stream after this many applied items since its last
        snapshot (``None`` = only explicit :meth:`checkpoint` calls).
    keep / journal:
        Passed to each stream's :class:`~repro.resilience.CheckpointStore`
        (generations retained; whether batches are journaled before
        ingestion -- journaling is what makes recovery bit-exact between
        snapshots).
    max_pending:
        Per-stream bound on queued-but-unapplied items; exceeding it
        raises :class:`~repro.exceptions.BackpressureError`.
    workers:
        ``0`` applies batches inline on the appending thread; ``n > 0``
        starts ``n`` daemon worker threads draining the per-stream
        queues (arrival order per stream is always preserved).
    metrics:
        ``None``/``False``/``True``/:class:`MetricsRegistry` -- resolved
        per stream with a ``<stream_id>.`` prefix into one shared
        registry (see :mod:`repro.observability`).
    fault_plan:
        Test-only :class:`~repro.resilience.FaultPlan` forwarded to every
        checkpoint store.
    apply_hook:
        Test seam: called as ``apply_hook(stream_id, n_items)`` just
        before each batch applies (lets tests stall the apply path to
        exercise backpressure and isolation deterministically).
    owns:
        Optional ``stream_id -> bool`` predicate limiting startup
        recovery to the streams this engine is responsible for.  Cluster
        workers share one ``checkpoint_dir`` (``docs/CLUSTER.md``) and
        pass their hash-ring membership test here, so each manifested
        stream is recovered by exactly one worker; streams outside the
        predicate stay on disk for :meth:`adopt`.
    """

    def __init__(
        self,
        *,
        checkpoint_dir=None,
        checkpoint_every: Optional[int] = None,
        keep: int = 2,
        journal: bool = True,
        max_pending: int = 100_000,
        workers: int = 0,
        metrics=None,
        fault_plan=None,
        apply_hook=None,
        owns=None,
    ) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise InvalidParameterError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if max_pending < 1:
            raise InvalidParameterError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if workers < 0:
            raise InvalidParameterError(f"workers must be >= 0, got {workers}")
        self.checkpoint_dir = (
            os.fspath(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.checkpoint_every = checkpoint_every
        self.keep = keep
        self.journal = journal
        self.max_pending = max_pending
        self.fault_plan = fault_plan
        self.apply_hook = apply_hook
        self.owns = owns
        if metrics is True:
            metrics = MetricsRegistry()
        elif isinstance(metrics, SummaryMetrics):
            metrics = metrics.registry
        self.metrics_registry: Optional[MetricsRegistry] = (
            metrics if isinstance(metrics, MetricsRegistry) else None
        )
        self._tenants: dict[str, _Tenant] = {}
        self._registry_lock = threading.Lock()
        self._closed = False
        self._errors = 0
        self._ready: queue.Queue = queue.Queue()
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-engine-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()
        if self.checkpoint_dir is not None:
            self._recover_existing()

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "StreamEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Drain every queue, stop the workers, refuse further appends."""
        if self._closed:
            return
        self.drain()
        self._closed = True
        for _ in self._workers:
            self._ready.put(_SHUTDOWN)
        for thread in self._workers:
            thread.join(timeout=5.0)
        for tenant in list(self._tenants.values()):
            if tenant.store is not None:
                with tenant.lock:
                    tenant.store.close()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until all accepted batches have applied (True on success)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for tenant in list(self._tenants.values()):
            with tenant.idle:
                while tenant.pending_items or tenant.scheduled:
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            return False
                    tenant.idle.wait(remaining)
        return True

    # -- stream management --------------------------------------------------

    def stream(
        self,
        stream_id: str,
        *,
        method: str = "min-increment",
        buckets: int = 32,
        epsilon: float = 0.1,
        universe: Optional[int] = None,
        window: Optional[int] = None,
        backend: str = "object",
    ):
        """Create (or fetch) the named stream; returns a ``StreamHandle``.

        Creation is idempotent: calling again with the same id returns a
        handle on the existing stream, but a conflicting ``method`` (or
        ``window``) raises rather than silently serving different math
        than the caller asked for.  ``backend`` is deprecated and ignored
        (validated by :func:`~repro.api.check_backend`).
        """
        check_backend(backend, method)
        from repro.service.session import StreamHandle

        tenant = self._tenants.get(stream_id)
        if tenant is None:
            with self._registry_lock:
                tenant = self._tenants.get(stream_id)
                if tenant is None:
                    tenant = self._create_tenant(
                        stream_id,
                        method=method,
                        buckets=buckets,
                        epsilon=epsilon,
                        universe=universe,
                        window=window,
                    )
                    self._tenants[stream_id] = tenant
                    return StreamHandle(self, tenant)
        if tenant.method != method or tenant.window != window:
            raise InvalidParameterError(
                f"stream {stream_id!r} already exists with "
                f"method={tenant.method!r} window={tenant.window}; "
                f"requested method={method!r} window={window}"
            )
        return StreamHandle(self, tenant)

    def attach(self, stream_id: str, summary, *, method: Optional[str] = None):
        """Adopt a prebuilt summary as a new stream; returns a handle.

        The escape hatch behind ``summarize(method=SomeClass)`` and the
        one-shot path: any :class:`~repro.core.interface.StreamingSummary`
        joins the engine's locking/queueing/stats machinery.  Attached
        streams are never checkpointed (the engine cannot manifest a
        factory for an arbitrary object).
        """
        from repro.service.session import StreamHandle

        self._check_open()
        with self._registry_lock:
            if stream_id in self._tenants:
                raise InvalidParameterError(
                    f"stream {stream_id!r} already exists"
                )
            tenant = _Tenant(
                stream_id, method or type(summary).__name__, summary
            )
            tenant.attached = True
            self._tenants[stream_id] = tenant
        return StreamHandle(self, tenant)

    def handle(self, stream_id: str):
        """A handle on an *existing* stream (no config; raises on unknown).

        Unlike :meth:`stream` this never creates and never checks config,
        so it is the right accessor when the caller does not care how the
        stream was configured (e.g. the wire front re-addressing a stream
        created by an earlier request).
        """
        from repro.service.session import StreamHandle

        return StreamHandle(self, self._tenant(stream_id))

    def streams(self) -> tuple:
        """The registered stream ids, sorted."""
        return tuple(sorted(self._tenants))

    def _create_tenant(
        self,
        stream_id,
        *,
        method,
        buckets,
        epsilon,
        universe,
        window,
    ) -> _Tenant:
        self._check_open()
        if method not in streaming_methods():
            raise InvalidParameterError(
                f"unknown streaming method {method!r}; streaming methods: "
                f"{', '.join(streaming_methods())} (offline methods cannot "
                "back a stream; see repro.api.methods())"
            )
        metrics = None
        if self.metrics_registry is not None:
            metrics = resolve_metrics(
                self.metrics_registry, prefix=f"{stream_id}."
            )
        summary = build_summary(
            method,
            buckets=buckets,
            epsilon=epsilon,
            universe=universe if universe is not None else DEFAULT_UNIVERSE,
            window=window,
            metrics=metrics,
        )
        if metrics is not None:
            metrics.bind_gauges(summary)
        tenant = _Tenant(stream_id, method, summary)
        if self.checkpoint_dir is not None:
            tenant.store = self._open_store(tenant, write_manifest=True)
        return tenant

    # -- checkpointing -------------------------------------------------------

    def _open_store(
        self, tenant: _Tenant, *, write_manifest: bool
    ) -> CheckpointStore:
        directory = os.path.join(
            self.checkpoint_dir, _tenant_dirname(tenant.stream_id)
        )
        store = CheckpointStore(
            directory,
            keep=self.keep,
            journal=self.journal,
            fault_plan=self.fault_plan,
        )
        manifest_path = os.path.join(directory, _MANIFEST)
        if write_manifest and not os.path.exists(manifest_path):
            tmp = manifest_path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(tenant.manifest(), handle)
            os.replace(tmp, manifest_path)
        return store

    def _recover_existing(self) -> None:
        """Rebuild every manifested stream found under ``checkpoint_dir``.

        With an ``owns`` predicate (cluster workers sharing one
        directory) only the streams it admits are recovered; the rest
        stay on disk for another engine -- or a later :meth:`adopt`.
        """
        if not os.path.isdir(self.checkpoint_dir):
            return
        for name in sorted(os.listdir(self.checkpoint_dir)):
            manifest_path = os.path.join(self.checkpoint_dir, name, _MANIFEST)
            if not os.path.isfile(manifest_path):
                continue
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
            if self.owns is not None and not self.owns(manifest["stream_id"]):
                continue
            tenant = self._recover_tenant(manifest)
            self._tenants[tenant.stream_id] = tenant

    def _recover_tenant(self, manifest: dict) -> _Tenant:
        """One manifested stream back to life: snapshot + journal tail."""
        stream_id = manifest["stream_id"]
        metrics = None
        if self.metrics_registry is not None:
            metrics = resolve_metrics(
                self.metrics_registry, prefix=f"{stream_id}."
            )

        def factory(m=manifest):
            return build_summary(
                m["method"],
                buckets=m["buckets"],
                epsilon=m["epsilon"],
                universe=m["universe"],
                window=m["window"],
            )

        tenant = _Tenant(stream_id, manifest["method"], factory())
        tenant.store = self._open_store(tenant, write_manifest=False)
        tenant.summary = tenant.store.recover(factory=factory)
        tenant.buckets = manifest["buckets"]
        tenant.epsilon = manifest["epsilon"]
        tenant.universe = manifest["universe"]
        tenant.window = manifest["window"]
        tenant.recovered = True
        if metrics is not None:
            metrics.bind_gauges(tenant.summary)
        return tenant

    def adopt(self, stream_id: str):
        """Adopt a manifested stream from ``checkpoint_dir`` right now.

        The cluster adoption path (``docs/CLUSTER.md``): when a worker
        dies, the router tells a survivor to ``adopt`` each orphaned
        stream, and this engine recovers it from the shared directory
        (newest good snapshot + journal tail -- bit-identical to the
        uninterrupted run, because acknowledged appends are journaled
        before they are acknowledged).  Idempotent: adopting a stream
        this engine already owns returns the live handle.
        """
        from repro.service.session import StreamHandle

        self._check_open()
        if self.checkpoint_dir is None:
            raise InvalidParameterError(
                "adopt() needs a checkpoint_dir: adoption recovers the "
                "stream from its on-disk manifest"
            )
        with self._registry_lock:
            tenant = self._tenants.get(stream_id)
            if tenant is not None:
                return StreamHandle(self, tenant)
            manifest_path = os.path.join(
                self.checkpoint_dir, _tenant_dirname(stream_id), _MANIFEST
            )
            if not os.path.isfile(manifest_path):
                raise InvalidParameterError(
                    f"no manifest for stream {stream_id!r} under "
                    f"{self.checkpoint_dir}"
                )
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
            tenant = self._recover_tenant(manifest)
            self._tenants[stream_id] = tenant
        return StreamHandle(self, tenant)

    def release(self, stream_id: str, *, checkpoint: bool = True) -> Optional[int]:
        """Drop a stream from this engine (the handoff donor side).

        Waits for the stream's queued batches to apply (FIFO drain),
        optionally snapshots, closes its checkpoint store, and removes
        the tenant -- after which another engine may :meth:`adopt` the
        stream from the shared directory.  Returns the final snapshot
        generation (``None`` when not checkpointing or not durable).

        The caller is responsible for fencing new appends first (the
        cluster router gates the stream during handoff); an append that
        races the release either lands before it (drained, checkpointed)
        or fails with *unknown stream* after it -- never silently drops.
        """
        tenant = self._tenant(stream_id)
        with tenant.idle:
            while tenant.pending_items or tenant.scheduled:
                tenant.idle.wait()
        with self._registry_lock:
            self._tenants.pop(stream_id, None)
        generation = None
        with tenant.lock:
            if tenant.store is not None:
                if checkpoint:
                    generation = tenant.store.save(tenant.summary)
                tenant.store.close()
        return generation

    def checkpoint(self, stream_id: Optional[str] = None) -> dict:
        """Snapshot one stream (or every durable stream) right now.

        Returns ``{stream_id: generation}``.  Naming a stream without a
        checkpoint store raises; the all-streams form skips non-durable
        streams silently.
        """
        if stream_id is not None:
            tenant = self._tenant(stream_id)
            if tenant.store is None:
                raise InvalidParameterError(
                    f"stream {stream_id!r} has no checkpoint store "
                    "(engine has no checkpoint_dir, or the stream was "
                    "attached)"
                )
            return {stream_id: self._snapshot(tenant)}
        out = {}
        for tenant in list(self._tenants.values()):
            if tenant.store is not None:
                out[tenant.stream_id] = self._snapshot(tenant)
        return out

    def _snapshot(self, tenant: _Tenant) -> int:
        with tenant.lock:
            generation = tenant.store.save(tenant.summary)
            tenant.since_snapshot = 0
            tenant.last_generation = generation
            tenant.checkpoints += 1
            return generation

    # -- ingest --------------------------------------------------------------

    def append(self, stream_id: str, values) -> int:
        """Append values to the named stream; returns the item count.

        One unified signature (``docs/API.md``): ``values`` may be a
        scalar, any sequence, or a numpy ndarray -- normalized through
        :func:`~repro.core.batch.coerce_batch`, so an ndarray (e.g. the
        zero-copy view over a binary wire frame) reaches the vectorized
        batch kernels without conversion.

        Synchronous engines (``workers=0``) apply inline before
        returning; worker engines enqueue and return immediately (call
        :meth:`drain` for a barrier).  Raises
        :class:`~repro.exceptions.BackpressureError` when the stream's
        queue bound would be exceeded -- nothing is enqueued in that
        case.
        """
        self._check_open()
        tenant = self._tenant(stream_id)
        values = coerce_batch(values)
        n = len(values)
        if n == 0:
            return 0
        if not self._workers:
            with tenant.qlock:
                tenant.appends += 1
            self._apply(tenant, values)
            return n
        with tenant.qlock:
            if tenant.pending_items + n > self.max_pending:
                tenant.rejected += 1
                raise BackpressureError(
                    f"stream {stream_id!r} write queue is full: "
                    f"{tenant.pending_items} item(s) pending + {n} offered "
                    f"> max_pending={self.max_pending}; retry after the "
                    "queue drains"
                )
            tenant.pending.append(values)
            tenant.pending_items += n
            tenant.appends += 1
            if not tenant.scheduled:
                tenant.scheduled = True
                self._ready.put(tenant.stream_id)
        return n

    def _worker_loop(self) -> None:
        while True:
            item = self._ready.get()
            if item is _SHUTDOWN:
                return
            tenant = self._tenants.get(item)
            if tenant is not None:
                self._drain_tenant(tenant)

    def _drain_tenant(self, tenant: _Tenant) -> None:
        """Apply the tenant's queued batches in FIFO order until empty.

        Only the worker that flipped ``scheduled`` runs this, so a
        stream's batches never apply concurrently or out of order.
        """
        while True:
            with tenant.qlock:
                if not tenant.pending:
                    tenant.scheduled = False
                    tenant.idle.notify_all()
                    return
                batch = tenant.pending.popleft()
                more = bool(tenant.pending)
            try:
                # Group commit: while more batches are queued behind this
                # one, defer the journal fsync -- the drain's final batch
                # (or the next snapshot) commits the whole run with one
                # fsync.  Frame/batch boundaries stay the durability
                # boundaries the caller observes via drain().
                self._apply(tenant, batch, sync=not more)
            except ReproError as exc:
                # A worker must survive a poisoned batch (e.g. a value
                # outside the stream's universe): record and move on.
                tenant.last_error = f"{type(exc).__name__}: {exc}"
                self._errors += 1
            finally:
                with tenant.qlock:
                    tenant.pending_items -= len(batch)
                    if not tenant.pending_items:
                        tenant.idle.notify_all()

    def _apply(self, tenant: _Tenant, values, *, sync: bool = True) -> None:
        if self.apply_hook is not None:
            self.apply_hook(tenant.stream_id, len(values))
        with tenant.lock:
            if tenant.store is not None:
                tenant.store.ingest(tenant.summary, values, sync=sync)
            else:
                tenant.summary.extend(values)
            tenant.since_snapshot += len(values)
            # Every applied batch starts a new write epoch; cached query
            # results keyed on the old epoch become unreachable.
            tenant.epoch += 1
        if (
            tenant.store is not None
            and self.checkpoint_every is not None
            and tenant.since_snapshot >= self.checkpoint_every
        ):
            self._snapshot(tenant)

    # -- queries -------------------------------------------------------------

    def histogram(
        self,
        stream_id: str,
        *,
        requested_buckets: Optional[int] = None,
    ) -> Histogram:
        """Snapshot-isolated histogram of the named stream, with meta.

        Runs under the stream's apply lock: the result always reflects a
        whole prefix of the accepted batches.  The returned histogram
        carries :class:`~repro.core.histogram.HistogramMeta`.

        Repeated queries between writes are served from an epoch-keyed
        cache: :meth:`_apply` bumps the stream's write epoch under the
        same lock, so a cached ``(hist, items)`` pair is valid exactly
        while the epoch stands still.  Histograms are immutable and
        ``with_meta`` clones share segment storage, so serving the cached
        object is safe.  Attached streams are never cached: their summary
        object is owned by the caller, who may mutate it without going
        through the engine's write path.
        """
        tenant = self._tenant(stream_id)
        with tenant.lock:
            if not tenant.attached and tenant.cached_epoch == tenant.epoch:
                hist = tenant.cached_hist
                items = tenant.cached_items
                cache_hit = True
            else:
                hist = tenant.summary.histogram()
                items = tenant.summary.items_seen
                cache_hit = False
                if not tenant.attached:
                    tenant.cached_hist = hist
                    tenant.cached_items = items
                    tenant.cached_epoch = tenant.epoch
            metrics = getattr(tenant.summary, "metrics", None)
        tenant.queries += 1
        if metrics is not None:
            metrics.on_query_cache(cache_hit)
        buckets = tenant.buckets if tenant.buckets is not None else len(hist)
        return hist.with_meta(
            HistogramMeta(
                method=tenant.method,
                buckets=len(hist),
                requested_buckets=(
                    requested_buckets
                    if requested_buckets is not None
                    else buckets
                ),
                error=hist.error,
                items_seen=items,
                window=tenant.window,
                epsilon=tenant.epsilon,
            )
        )

    def items_seen(self, stream_id: str) -> int:
        """Items applied to the named stream so far (excludes queued)."""
        tenant = self._tenant(stream_id)
        with tenant.lock:
            return tenant.summary.items_seen

    def stats(self, stream_id: Optional[str] = None) -> dict:
        """Plain-data engine (or single-stream) statistics.

        The engine form nests per-stream stats under ``"streams"`` plus
        engine-level totals; with ``metrics=`` enabled the shared
        registry snapshot rides along under ``"metrics"``.
        """
        if stream_id is not None:
            return self._tenant_stats(self._tenant(stream_id))
        streams = {
            sid: self._tenant_stats(tenant)
            for sid, tenant in sorted(self._tenants.items())
        }
        out = {
            "streams": streams,
            "stream_count": len(streams),
            "items_seen": sum(s["items_seen"] for s in streams.values()),
            "pending_items": sum(
                s["pending_items"] for s in streams.values()
            ),
            "appends": sum(s["appends"] for s in streams.values()),
            "rejected": sum(s["rejected"] for s in streams.values()),
            "queries": sum(s["queries"] for s in streams.values()),
            "checkpoints": sum(s["checkpoints"] for s in streams.values()),
            "errors": self._errors,
            "workers": len(self._workers),
            "max_pending": self.max_pending,
            "durable": self.checkpoint_dir is not None,
        }
        if self.metrics_registry is not None:
            out["metrics"] = self.metrics_registry.snapshot()
        return out

    def _tenant_stats(self, tenant: _Tenant) -> dict:
        with tenant.lock:
            items = tenant.summary.items_seen
            memory = tenant.summary.memory_bytes()
            try:
                error = tenant.summary.error
            except (EmptySummaryError, ReproError):
                error = None
        with tenant.qlock:
            pending = tenant.pending_items
        return {
            "method": tenant.method,
            "buckets": tenant.buckets,
            "epsilon": tenant.epsilon,
            "universe": tenant.universe,
            "window": tenant.window,
            "items_seen": items,
            "pending_items": pending,
            "memory_bytes": memory,
            "error": error,
            "appends": tenant.appends,
            "rejected": tenant.rejected,
            "queries": tenant.queries,
            "checkpoints": tenant.checkpoints,
            "last_generation": tenant.last_generation,
            "recovered": tenant.recovered,
            "attached": tenant.attached,
            "last_error": tenant.last_error,
        }

    # -- internals -----------------------------------------------------------

    def _tenant(self, stream_id: str) -> _Tenant:
        tenant = self._tenants.get(stream_id)
        if tenant is None:
            raise UnknownStreamError(
                f"unknown stream {stream_id!r}; known streams: "
                f"{', '.join(self.streams()) or '(none)'}"
            )
        return tenant

    def _check_open(self) -> None:
        if self._closed:
            raise InvalidParameterError("engine is closed")
