"""Parallel shard-then-merge ingest over ``concurrent.futures`` workers.

The paper's sensor-network deployment (Section 1, Section 2.1) is already a
parallel computation: every node summarizes its own segment and an
aggregation tree combines the children without replaying raw data.
:class:`ParallelSummarizer` runs that computation on one machine's cores --
split the input into contiguous shards (:class:`~repro.parallel.plan.ShardPlan`),
batch-ingest every shard in a worker, then combine the shard summaries with
the aggregation merge operator in a log-depth tree
(:func:`~repro.parallel.reduce.tree_reduce`).  The (1, 2) guarantee
survives (module docs of ``repro.core.aggregation``), and the result is
deterministic: bit-identical to running the same shard plan and merge tree
serially (:meth:`ParallelSummarizer.reference`), regardless of worker
backend or scheduling.

Backends
--------

* ``"process"`` -- a fresh ``ProcessPoolExecutor`` per call using the
  ``fork`` start method, so workers read their shard through a
  fork-inherited **view** of the input array: zero copies out, and only
  ``O(B)`` bucket state pickled back per shard.  Chosen automatically on
  POSIX for ndarray inputs whose shards are large enough to amortize the
  ~10-20 ms pool startup.
* ``"thread"`` -- a ``ThreadPoolExecutor`` over slices of the same array.
  The GIL serializes the pure-Python kernels, so this is a *fallback* for
  small inputs, non-POSIX platforms, and non-batchable sequences -- it
  exists so the sharded code path (and its determinism guarantees) are
  identical everywhere, not to be fast.

Only the merge-capable families parallelize: ``"min-merge"``
(:class:`MinMergeHistogram`) and ``"pwl-min-merge"``
(:class:`PwlMinMergeHistogram`).  The MIN-INCREMENT ladder is *not*
mergeable -- each level's GREEDY-INSERT state depends on its own prefix
boundaries, and two ladders over different segments cannot be combined
without replaying values -- so asking for it raises
:class:`~repro.exceptions.InvalidParameterError` (the documented fallback
is shard -> min-merge -> refeed the 2B representatives, at the cost of the
(1+eps, 1) guarantee degrading to min-merge's (1, 2)).

Worker-failure recovery: shards are dispatched as individual futures, and
a shard whose worker dies (``BrokenProcessPool``) or whose execution
raises is **retried** in later waves with exponential backoff -- the pool
is re-created if it broke -- and after ``max_shard_retries`` failed pool
attempts the shard **degrades to in-process execution** in the parent, so
a flaky pool can slow a run down but not change its answer (the retried
result is bit-identical to :meth:`ParallelSummarizer.reference`).  Every
failed attempt is surfaced through the ``failures_retried`` metrics
counter, which aggregates through merges like the other lifecycle
counters.  Deterministic worker deaths for tests come from a
:class:`~repro.resilience.FaultPlan` with ``shard:<i>`` (poison: the
attempt raises) or ``shard.kill:<i>`` (hard ``os._exit`` on the process
backend; degrades to poison on threads, which share the process) points.

Observability: with ``metrics=`` set, every worker runs instrumented and
the combined summary's facade reports the **sum** of the per-shard
lifecycle counters plus the merges performed by the reduction tree itself
(latency timelines stay per-process and are not merged).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Optional, Sequence, Union

import numpy as np

from repro.api import _METHOD_SPECS, PARALLEL_METHODS, _construct
from repro.core.aggregation import merge_min_merge_summaries, merge_pwl_summaries
from repro.core.batch import as_batch_array
from repro.core.bucket import Bucket
from repro.core.interface import DEFAULT_HULL_EPSILON
from repro.exceptions import InjectedFaultError, InvalidParameterError
from repro.observability.hooks import resolve_metrics
from repro.parallel.plan import ShardPlan
from repro.parallel.reduce import tree_reduce

__all__ = [
    "MERGEABLE_METHODS",
    "ParallelSummarizer",
    "available_cpus",
    "fork_available",
    "map_tasks",
    "resolve_workers",
    "summarize_parallel",
]

#: Methods whose summaries can be shard-ingested and merged losslessly
#: (the same tuple as :data:`repro.api.PARALLEL_METHODS`).
MERGEABLE_METHODS = PARALLEL_METHODS

#: Per-method "auto" sizing cut-off: a shard below this many items cannot
#: amortize worker dispatch, so auto sizing stays serial / uses fewer
#: workers.  MIN-MERGE's vectorized batch path ingests 1e6 items in under
#: 0.1 s, so a two-process pool only pays off from 4e6 items (2 x 2e6): on
#: a 2-vCPU host it beat serial extend() in 9 of 10 runs at 4e6 items,
#: and in at most 1 of 10 at 2.5e5 and 1e6.  Exact-hull PWL ingests
#: orders of magnitude fewer items/s and profits from parallelism much
#: earlier.
_AUTO_CUTOFF = {"min-merge": 2_000_000, "pwl-min-merge": 8_192}

#: Minimum shard size for the process backend to be chosen automatically
#: (below it, fork + IPC overhead beats the parallel win).  For MIN-MERGE
#: the thread pool loses to the process pool at every measured size (the
#: batch kernel holds the GIL): 1.6-2.3x slower at 2.5e5-4e6 items.
_PROCESS_MIN_SHARD = {"min-merge": 100_000, "pwl-min-merge": 4_096}

#: Module global published immediately before a fork-context pool is
#: created, so workers inherit a zero-copy view of the input array.
_FORK_PAYLOAD = None


def available_cpus() -> int:
    """CPUs usable for worker sizing (never less than 1)."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return max(1, len(affinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return max(1, os.cpu_count() or 1)


def fork_available() -> bool:
    """Whether the zero-copy ``fork`` process backend can run here."""
    return (
        os.name == "posix"
        and "fork" in multiprocessing.get_all_start_methods()
    )


def resolve_workers(
    workers: Union[None, int, str],
    items: int,
    *,
    serial_cutoff: int,
) -> int:
    """Normalize a ``workers=`` argument to a concrete worker count.

    ``None``/``1`` mean serial.  ``"auto"`` sizes to the machine: one
    worker per ``serial_cutoff`` items, capped at the CPU count, and
    strictly serial below ``2 * serial_cutoff`` items so tiny streams never
    pay pool startup.  Explicit integers are honored (clamped to the item
    count by the shard plan).
    """
    if workers is None:
        return 1
    if workers == "auto":
        if items < 2 * serial_cutoff:
            return 1
        return max(1, min(available_cpus(), items // serial_cutoff))
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise InvalidParameterError(
            f'workers must be a positive int, "auto", or None; got {workers!r}'
        )
    return workers


def map_tasks(fn, tasks: Sequence, *, workers: Union[None, int, str] = None) -> list:
    """Run independent tasks, optionally on a thread pool; order preserved.

    The dispatch primitive behind :meth:`StreamFleet.extend_rows`: ``fn``
    is applied to every task and the results are returned in task order.
    ``workers=None``/``1`` runs inline; ``"auto"`` uses one thread per task
    up to the CPU count.
    """
    tasks = list(tasks)
    if workers == "auto":
        workers = min(len(tasks), available_cpus())
    elif workers is not None and (
        not isinstance(workers, int) or isinstance(workers, bool) or workers < 1
    ):
        raise InvalidParameterError(
            f'workers must be a positive int, "auto", or None; got {workers!r}'
        )
    if workers is None or workers <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(fn, tasks))


# -- shard workers (run in pool workers; must stay module-level picklable) --


def _make_summary(spec: dict, metrics, start: int):
    """A fresh summary of the right family, indexing from ``start``."""
    summary = _construct(
        spec["method"],
        buckets=spec["buckets"],
        working_buckets=spec["working_buckets"],
        hull_epsilon=spec["hull_epsilon"],
        metrics=metrics,
    )
    # Shards share the stream's global index space, so the merge operator
    # can verify contiguity instead of being told to reindex.
    summary._n = start
    return summary


def _build_shard_summary(spec: dict, start: int):
    """Worker-side summary: a private registry when instrumentation is on."""
    return _make_summary(spec, True if spec["instrument"] else None, start)


def _summarize_shard(segment, start: int, spec: dict):
    """Ingest one shard and return its live summary (thread/serial path)."""
    summary = _build_shard_summary(spec, start)
    summary.extend(segment)
    return summary


def _shard_payload(summary, spec: dict, start: int) -> tuple:
    """O(B) plain-data form of a shard summary for the IPC trip home."""
    count = summary.items_seen - start
    counters = (
        summary.metrics.counter_totals() if summary.metrics is not None else None
    )
    if spec["pwl"]:
        buckets = summary.buckets_snapshot()
    else:
        buckets = [
            (b.beg, b.end, b.min, b.max) for b in summary.buckets_snapshot()
        ]
    return buckets, count, counters


def _rebuild_child(payload: tuple, spec: dict):
    """Parent-side inverse of :func:`_shard_payload`."""
    buckets, count, counters = payload
    summary = _build_shard_summary(spec, 0)
    if not spec["pwl"]:
        buckets = [Bucket(*item) for item in buckets]
    summary.adopt_buckets(buckets, count=count)
    if counters is not None:
        summary.metrics.absorb_counters(counters)
    return summary


def _maybe_inject(mode: Optional[str]) -> None:
    """Act on an injected shard fault: poison raises, kill dies hard."""
    if mode is None:
        return
    if mode == "kill":
        os._exit(86)
    raise InjectedFaultError(f"injected shard fault ({mode})")


def _forked_shard(args: tuple) -> tuple:
    """Pool-worker entry point: summarize one shard of the inherited array."""
    start, stop, spec, inject = args
    _maybe_inject(inject)
    segment = _FORK_PAYLOAD[start:stop]
    summary = _summarize_shard(segment, start, spec)
    return _shard_payload(summary, spec, start)


def _inprocess_payload(data, shard, spec: dict, inject: Optional[str]) -> tuple:
    """Degraded in-process shard run, normalized to the payload form."""
    # The parent cannot os._exit itself, so kill degrades to poison here.
    _maybe_inject("poison" if inject else None)
    summary = _summarize_shard(data[shard.slice()], shard.start, spec)
    return _shard_payload(summary, spec, shard.start)


class ParallelSummarizer:
    """Shard-parallel ingest for the merge-capable summary families.

    Parameters
    ----------
    method:
        ``"min-merge"`` or ``"pwl-min-merge"`` (see
        :data:`MERGEABLE_METHODS`; anything else raises, with the ladder
        non-mergeability rationale in the message).
    buckets:
        Target ``B`` of the combined summary.
    workers:
        ``"auto"`` (default -- size to the machine with a serial cut-off),
        a positive int, or ``None`` for serial.
    backend:
        ``None`` (auto), ``"process"``, or ``"thread"``; see module docs.
    arity:
        Merge-tree fan-in (default 2 = pairwise log-depth).  Larger arity
        trades tree depth for per-node reduction width; ``arity >= P``
        degenerates to one flat fold.
    working_buckets, hull_epsilon:
        Forwarded to the shard summaries (``hull_epsilon`` applies to
        ``"pwl-min-merge"`` only).
    serial_cutoff:
        Items per worker below which ``"auto"`` stays serial; defaults to
        a per-method profile (:data:`_AUTO_CUTOFF`).
    metrics:
        Opt-in instrumentation (``True``, a registry, or a facade).  The
        facade on the *combined* summary aggregates per-shard counters,
        including ``failures_retried`` (one per failed shard attempt).
    max_shard_retries:
        Pool attempts per shard before it degrades to in-process
        execution in the parent (>= 1; default 2 = one retry).
    retry_backoff:
        Base of the exponential backoff between retry waves, in seconds
        (wave ``k`` sleeps ``retry_backoff * 2**(k-1)``); ``0`` disables
        sleeping (tests).
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan` consulted once per
        shard attempt at the ``shard:<i>`` / ``shard.kill:<i>`` points
        (tests only; ``reference`` never consults it).

    Examples
    --------
    >>> import numpy as np
    >>> arr = np.arange(10_000) % 97
    >>> combined = ParallelSummarizer("min-merge", buckets=8, workers=4).summarize(arr)
    >>> combined.items_seen
    10000
    """

    def __init__(
        self,
        method: str = "min-merge",
        *,
        buckets: int,
        workers: Union[None, int, str] = "auto",
        backend: Optional[str] = None,
        arity: int = 2,
        working_buckets: Optional[int] = None,
        hull_epsilon: Optional[float] = DEFAULT_HULL_EPSILON,
        serial_cutoff: Optional[int] = None,
        metrics=None,
        max_shard_retries: int = 2,
        retry_backoff: float = 0.05,
        fault_plan=None,
    ):
        if method not in MERGEABLE_METHODS:
            raise InvalidParameterError(
                f"method {method!r} is not merge-capable; parallel shard "
                f"ingest needs the merge operator, available for: "
                f"{', '.join(MERGEABLE_METHODS)}.  The MIN-INCREMENT ladder "
                "is not mergeable (each level's GREEDY-INSERT state depends "
                "on its own segment's bucket boundaries); shard to min-merge "
                "and refeed the representatives if an approximate parallel "
                "ingest is acceptable."
            )
        if backend not in (None, "thread", "process"):
            raise InvalidParameterError(
                f"backend must be None, 'thread', or 'process', got {backend!r}"
            )
        if backend == "process" and not fork_available():
            raise InvalidParameterError(
                "the process backend needs POSIX fork; use backend='thread'"
            )
        if arity < 2:
            raise InvalidParameterError(f"arity must be >= 2, got {arity}")
        if serial_cutoff is not None and serial_cutoff < 1:
            raise InvalidParameterError(
                f"serial_cutoff must be >= 1, got {serial_cutoff}"
            )
        if max_shard_retries < 1:
            raise InvalidParameterError(
                f"max_shard_retries must be >= 1, got {max_shard_retries}"
            )
        if retry_backoff < 0:
            raise InvalidParameterError(
                f"retry_backoff must be >= 0, got {retry_backoff}"
            )
        self.max_shard_retries = max_shard_retries
        self.retry_backoff = retry_backoff
        self.fault_plan = fault_plan
        self.method = method
        self.buckets = buckets
        self.workers = workers
        self.backend = backend
        self.arity = arity
        self.serial_cutoff = (
            serial_cutoff if serial_cutoff is not None else _AUTO_CUTOFF[method]
        )
        self._metrics = resolve_metrics(metrics)
        self._spec = {
            "method": method,
            "pwl": _METHOD_SPECS[method].pwl,
            "buckets": buckets,
            "working_buckets": working_buckets,
            "hull_epsilon": hull_epsilon,
            "instrument": False,
        }
        # Validate the configuration eagerly, like StreamFleet does.
        _build_shard_summary(self._spec, 0)

    @property
    def merge(self):
        """The aggregation merge operator for this method."""
        if self._spec["pwl"]:
            return merge_pwl_summaries
        return merge_min_merge_summaries

    def plan(self, total: int) -> ShardPlan:
        """The shard plan ``summarize`` would use for ``total`` items."""
        workers = resolve_workers(
            self.workers, total, serial_cutoff=self.serial_cutoff
        )
        return ShardPlan.split(total, workers)

    # -- execution ---------------------------------------------------------

    def summarize(self, values):
        """Shard-ingest ``values`` and return the combined summary.

        The result satisfies the (1, 2) guarantee against the offline
        optimal ``B``-bucket histogram of the whole stream and is
        bit-identical to :meth:`reference` on the same input -- but its
        buckets generally differ from a single serial summary's (a
        different, equally valid, merge schedule).
        """
        data, n = self._coerce(values)
        plan = self.plan(n)
        if len(plan) == 1:
            return self._run_serial(data)
        backend = self._choose_backend(data, plan)
        if backend == "process":
            children = self._run_process_pool(data, plan)
        else:
            children = self._run_thread_pool(data, plan)
        return self._combine(children, parallel=True)

    def reference(self, values):
        """Serial shard-and-merge oracle: same plan, same tree, no pools.

        The equivalence gate in ``benchmarks/bench_parallel_ingest.py``
        (and ``tests/test_parallel.py``) asserts ``summarize`` output is
        bit-identical to this.
        """
        data, n = self._coerce(values)
        plan = self.plan(n)
        if len(plan) == 1:
            return self._run_serial(data)
        children = [
            _summarize_shard(data[shard.slice()], shard.start, self._worker_spec())
            for shard in plan
        ]
        return self._combine(children, parallel=False)

    # -- internals ---------------------------------------------------------

    def _coerce(self, values) -> tuple:
        arr = as_batch_array(values)
        if arr is not None:
            data = arr
        elif hasattr(values, "__len__") and hasattr(values, "__getitem__"):
            data = values  # sliceable but not batchable: scalar-ingest shards
        else:
            data = list(values)
        n = len(data)
        if n == 0:
            raise InvalidParameterError("cannot summarize an empty stream")
        return data, n

    def _worker_spec(self) -> dict:
        spec = dict(self._spec)
        spec["instrument"] = self._metrics is not None
        return spec

    def _run_serial(self, data):
        summary = _make_summary(self._spec, self._metrics, 0)
        summary.extend(data)
        return summary

    def _choose_backend(self, data, plan: ShardPlan) -> str:
        if self.backend is not None:
            return self.backend
        if not fork_available():
            return "thread"
        min_shard = min(shard.count for shard in plan)
        if min_shard < _PROCESS_MIN_SHARD[self.method]:
            return "thread"
        return "process"

    def _take_fault(self, index: int) -> Optional[str]:
        """Consume one injected fault for shard ``index``, if planned."""
        plan = self.fault_plan
        if plan is None:
            return None
        if plan.take(f"shard.kill:{index}"):
            return "kill"
        if plan.take(f"shard:{index}"):
            return "poison"
        return None

    def _note_failures(self, count: int) -> None:
        if count and self._metrics is not None:
            self._metrics.on_failure(count)

    def _run_with_recovery(
        self, plan: ShardPlan, *, pool_factory, submit_shard, run_inprocess
    ) -> list:
        """Dispatch every shard, retrying failures wave by wave.

        Wave ``k`` resubmits the shards that failed wave ``k-1`` after an
        exponential-backoff sleep, on a fresh pool if the old one broke
        (a worker died).  Shards still failing after
        ``max_shard_retries`` pool attempts run in-process; an in-process
        failure propagates to the caller.
        """
        shards = plan.shards
        results = [None] * len(shards)
        pending = list(range(len(shards)))
        attempt = 0
        pool = pool_factory()
        try:
            while pending:
                if attempt and self.retry_backoff:
                    time.sleep(self.retry_backoff * (2 ** (attempt - 1)))
                submitted = []
                failed = []
                broken = False
                for index in pending:
                    inject = self._take_fault(index)
                    try:
                        submitted.append(
                            (index, submit_shard(pool, shards[index], inject))
                        )
                    except BrokenExecutor:
                        broken = True
                        failed.append(index)
                for index, future in submitted:
                    try:
                        results[index] = future.result()
                    except Exception as exc:
                        if isinstance(exc, BrokenExecutor):
                            broken = True
                        failed.append(index)
                attempt += 1
                self._note_failures(len(failed))
                if failed and broken:
                    pool.shutdown(wait=False)
                    pool = pool_factory()
                if attempt >= self.max_shard_retries:
                    for index in sorted(failed):
                        results[index] = run_inprocess(
                            shards[index], self._take_fault(index)
                        )
                    pending = []
                else:
                    pending = sorted(failed)
        finally:
            pool.shutdown(wait=True)
        return results

    def _run_thread_pool(self, data, plan: ShardPlan) -> list:
        spec = self._worker_spec()

        def attempt(shard, inject):
            # Threads share the process, so kill degrades to poison here.
            _maybe_inject("poison" if inject else None)
            return _summarize_shard(data[shard.slice()], shard.start, spec)

        return self._run_with_recovery(
            plan,
            pool_factory=lambda: ThreadPoolExecutor(max_workers=len(plan)),
            submit_shard=lambda pool, shard, inject: pool.submit(
                attempt, shard, inject
            ),
            run_inprocess=attempt,
        )

    def _run_process_pool(self, data, plan: ShardPlan) -> list:
        global _FORK_PAYLOAD
        spec = self._worker_spec()
        context = multiprocessing.get_context("fork")
        # Publish the array, then fork: workers inherit a zero-copy view.
        # The payload stays published across the recovery waves so pools
        # re-created after a worker death re-fork the same view.
        _FORK_PAYLOAD = data
        try:
            payloads = self._run_with_recovery(
                plan,
                pool_factory=lambda: ProcessPoolExecutor(
                    max_workers=len(plan), mp_context=context
                ),
                submit_shard=lambda pool, shard, inject: pool.submit(
                    _forked_shard, (shard.start, shard.stop, spec, inject)
                ),
                run_inprocess=lambda shard, inject: _inprocess_payload(
                    data, shard, spec, inject
                ),
            )
        finally:
            _FORK_PAYLOAD = None
        return [_rebuild_child(payload, spec) for payload in payloads]

    def _combine(self, children: list, *, parallel: bool):
        if len(children) == 1:
            return children[0]
        root_metrics = self._metrics
        if len(children) > self.arity and parallel:
            # Each tree level's merges are independent; run them on a small
            # thread pool so the combine is log-depth in wall-clock too.
            with ThreadPoolExecutor(
                max_workers=max(2, len(children) // self.arity)
            ) as pool:
                return tree_reduce(
                    children,
                    self.merge,
                    buckets=self.buckets,
                    arity=self.arity,
                    root_metrics=root_metrics,
                    mapper=lambda fn, groups: list(pool.map(fn, groups)),
                )
        return tree_reduce(
            children,
            self.merge,
            buckets=self.buckets,
            arity=self.arity,
            root_metrics=root_metrics,
        )


def summarize_parallel(
    values,
    buckets: int,
    *,
    method: str = "min-merge",
    workers: Union[None, int, str] = "auto",
    **kwargs,
):
    """One-shot convenience: shard-ingest ``values`` and return the summary.

    Equivalent to ``ParallelSummarizer(method, buckets=buckets,
    workers=workers, **kwargs).summarize(values)``; see the class for the
    keyword surface and ``api.summarize(..., workers=)`` for the
    histogram-returning entry point.
    """
    summarizer = ParallelSummarizer(
        method, buckets=buckets, workers=workers, **kwargs
    )
    return summarizer.summarize(values)
