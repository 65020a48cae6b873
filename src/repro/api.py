"""One-shot convenience API.

Most adopters start with "I have a sequence, give me a good histogram".
:func:`summarize` wraps the right algorithm behind a single call::

    from repro import summarize

    hist = summarize(values, buckets=32)                 # streaming (1+eps, 1)
    hist = summarize(values, buckets=32, method="optimal")  # exact offline
    hist = summarize(values, buckets=32, method="pwl")      # piecewise-linear
    hist = summarize(values, buckets=32, window=10_000)     # sliding window

and returns a :class:`~repro.core.histogram.Histogram` carrying a
:class:`~repro.core.histogram.HistogramMeta` (method, buckets used, max
error, items seen) in ``hist.meta``.

Since the service engine landed, :func:`summarize` is a *thin one-shot
wrapper* over the same stateful session path that long-lived deployments
use: it opens an ephemeral :class:`~repro.service.Session`, appends the
values to one stream, and queries the histogram -- so the one-shot call
and a ``StreamEngine`` tenant run the exact same ingest route (see
``docs/SERVICE.md``).  For genuinely streaming use (values that do not
fit in memory, many tenants, checkpoints, concurrent queries) keep the
session open instead of re-summarizing.

Dispatch goes through :data:`ALGORITHM_REGISTRY`, a mapping from method
name to builder; ``method`` may also be a summary *class* implementing
the :class:`~repro.core.interface.StreamingSummary` protocol, which is
constructed with whatever subset of ``buckets`` / ``epsilon`` /
``universe`` its ``__init__`` accepts.  :func:`methods` reports a
capability matrix (streaming/mergeable/checkpointable/windowed/PWL) for
every registered method, read from the one method table
(``_METHOD_SPECS``) that every summary builder in the package uses.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.histogram import Histogram, HistogramMeta
from repro.core.interface import DEFAULT_HULL_EPSILON, conforms
from repro.core.min_increment import MinIncrementHistogram
from repro.core.min_merge import MinMergeHistogram
from repro.core.pwl_min_increment import PwlMinIncrementHistogram
from repro.core.pwl_min_merge import PwlMinMergeHistogram
from repro.core.sliding_window import SlidingWindowMinIncrement
from repro.core.sliding_window_pwl import SlidingWindowPwlMinIncrement
from repro.exceptions import InvalidParameterError
from repro.offline.optimal import optimal_histogram
from repro.offline.optimal_pwl import optimal_pwl_histogram

#: Default integer value domain ``[0, U)`` for the ladder methods when the
#: caller supplies none (matches :class:`~repro.fleet.StreamFleet` and the
#: harness).  One-shot calls size the universe from the data instead.
DEFAULT_UNIVERSE = 1 << 15


# -- method specs -------------------------------------------------------------


@dataclass(frozen=True)
class _MethodSpec:
    """What one registry method is: the only place that says so.

    ``summary_cls`` is ``None`` for offline methods, whose one-shot
    builder is ``offline``; ``windowed_cls`` is the sliding-window
    variant reachable via ``window=``, or ``None`` when the method has
    none.  ``needs_universe`` marks the ladder family, whose
    constructors take the value domain; ``mergeable`` marks the family
    whose shard summaries combine losslessly (``workers=``).
    ``guarantee`` is the theorem's ``(error factor, bucket factor)``
    against the optimal ``B``-bucket error, with ``None`` standing for
    ``1 + epsilon`` (see :func:`guarantee_bounds` for the windowed form).
    """

    summary_cls: Optional[type] = None
    windowed_cls: Optional[type] = None
    needs_universe: bool = False
    pwl: bool = False
    mergeable: bool = False
    guarantee: Optional[Tuple[Optional[float], int]] = None
    offline: Optional[Callable] = None


_METHOD_SPECS = {
    "min-increment": _MethodSpec(
        summary_cls=MinIncrementHistogram,
        windowed_cls=SlidingWindowMinIncrement,
        needs_universe=True,
        guarantee=(None, 1),
    ),
    "min-merge": _MethodSpec(
        summary_cls=MinMergeHistogram, mergeable=True, guarantee=(1.0, 2)
    ),
    "pwl": _MethodSpec(
        summary_cls=PwlMinIncrementHistogram,
        windowed_cls=SlidingWindowPwlMinIncrement,
        needs_universe=True,
        pwl=True,
        guarantee=(None, 1),
    ),
    "pwl-min-merge": _MethodSpec(
        summary_cls=PwlMinMergeHistogram,
        pwl=True,
        mergeable=True,
        guarantee=(1.0, 2),
    ),
    "optimal": _MethodSpec(offline=optimal_histogram, guarantee=(1.0, 1)),
    "optimal-pwl": _MethodSpec(offline=optimal_pwl_histogram, pwl=True),
}

#: Methods that accept ``workers=`` in :func:`summarize`: exactly the
#: merge-capable families, whose shard summaries combine losslessly (see
#: ``repro.parallel``).  The ladder methods are excluded because
#: MIN-INCREMENT state is not mergeable (each GREEDY-INSERT level depends
#: on its own segment's bucket boundaries).
PARALLEL_METHODS = tuple(
    name for name, spec in _METHOD_SPECS.items() if spec.mergeable
)


def _construct(
    method: str,
    *,
    buckets: int,
    epsilon: Optional[float] = None,
    universe: Optional[int] = None,
    window: Optional[int] = None,
    hull_epsilon: Optional[float] = DEFAULT_HULL_EPSILON,
    working_buckets: Optional[int] = None,
    metrics=None,
):
    """Build ``method``'s summary (its windowed form when ``window`` is set).

    The one constructor behind :func:`build_summary`,
    :func:`repro.harness.runner.make_algorithm` and the parallel shard
    workers; each passes only its own defaults.  Keywords the chosen
    class does not take are dropped: ``epsilon``/``universe`` outside the
    ladder family, ``hull_epsilon`` outside PWL, ``working_buckets``
    outside the MIN-MERGE family.
    """
    spec = _METHOD_SPECS[method]
    kwargs = {"buckets": buckets, "metrics": metrics}
    if spec.pwl:
        kwargs["hull_epsilon"] = hull_epsilon
    if window is not None:
        cls = spec.windowed_cls
        kwargs.update(epsilon=epsilon, universe=universe, window=window)
    else:
        cls = spec.summary_cls
        if spec.needs_universe:
            kwargs.update(epsilon=epsilon, universe=universe)
        if spec.mergeable:
            kwargs["working_buckets"] = working_buckets
    return cls(**kwargs)


def guarantee_bounds(
    method: str, *, buckets: int, epsilon: float, windowed: bool = False
) -> Tuple[float, int]:
    """``(error factor, bucket limit)`` of a streaming method's theorem.

    A run of ``method`` with budget ``buckets`` must report at most the
    bucket limit and err by at most the factor times the optimal
    ``buckets``-bucket error of the values it covers: (1, 2) for the
    MIN-MERGE family, (1 + eps, 1) for the ladder family and (1 + eps,
    1 + 1/B) for a sliding window (Theorem 5).
    """
    factor, bucket_factor = _METHOD_SPECS[method].guarantee
    if windowed:
        # Theorem 5: the window keeps one partially expired bucket.
        return 1.0 + epsilon, buckets + 1
    if factor is None:
        factor = 1.0 + epsilon
    return factor, bucket_factor * buckets


def _check_windowed(method) -> None:
    """Raise unless ``method`` names a method with a sliding window."""
    spec = _METHOD_SPECS.get(method)
    if spec is None or spec.windowed_cls is None:
        windowed = [
            name
            for name, s in _METHOD_SPECS.items()
            if s.windowed_cls is not None
        ]
        raise InvalidParameterError(
            f"method {method!r} has no sliding-window variant; "
            f"window= is supported for: {', '.join(windowed)}"
        )


def check_backend(backend: str, method) -> None:
    """Validate a deprecated ``backend=`` argument; it selects nothing.

    The MIN-MERGE family runs one maintenance kernel
    (:mod:`repro.core.soa`).  Callers written against the old two-kernel
    API may still pass ``backend``: every method accepts the old default
    ``"object"``, the MIN-MERGE family also accepts ``"soa"``, and any
    other combination raises exactly as before.
    """
    if backend == "object":
        return
    if backend != "soa":
        raise InvalidParameterError(
            f"backend must be 'object' or 'soa', got {backend!r}"
        )
    if not isinstance(method, str) or method not in PARALLEL_METHODS:
        label = method.__name__ if isinstance(method, type) else repr(method)
        raise InvalidParameterError(
            f"backend= is only accepted for the MIN-MERGE family "
            f"({', '.join(PARALLEL_METHODS)}), not {label}"
        )


def build_summary(
    method: str,
    *,
    buckets: int,
    epsilon: float = 0.1,
    universe: Optional[int] = None,
    window: Optional[int] = None,
    metrics=None,
    backend: str = "object",
):
    """Construct a fresh streaming summary for a registry ``method``.

    The constructor hook shared by :func:`summarize`'s one-shot path and
    the :class:`~repro.service.StreamEngine` tenants, so both build the
    exact same summary object for a given configuration.  ``window``
    selects the sliding-window variant where one exists; offline methods
    (``"optimal"``, ``"optimal-pwl"``) have no streaming summary and
    raise.  ``backend`` is deprecated and ignored (see
    :func:`check_backend`).
    """
    check_backend(backend, method)
    spec = _METHOD_SPECS.get(method)
    if spec is None or spec.summary_cls is None:
        raise InvalidParameterError(
            f"method {method!r} has no streaming summary; streaming "
            f"methods: {', '.join(streaming_methods())}"
            + (" (see repro.api.methods())" if spec is not None else "")
        )
    if window is not None:
        _check_windowed(method)
    return _construct(
        method,
        buckets=buckets,
        epsilon=epsilon,
        universe=universe if universe is not None else DEFAULT_UNIVERSE,
        window=window,
        metrics=metrics,
    )


def streaming_methods() -> tuple:
    """Registry names with a streaming summary class, in registry order."""
    return tuple(
        name
        for name in ALGORITHM_REGISTRY
        if _METHOD_SPECS.get(name) is not None
        and _METHOD_SPECS[name].summary_cls is not None
    )


def methods() -> dict:
    """Capability matrix for every :data:`ALGORITHM_REGISTRY` method.

    Returns ``{name: capabilities}`` where capabilities is a plain dict
    with boolean flags, read from the method table and probed on the
    summary classes:

    * ``streaming`` -- has a :class:`StreamingSummary`-conformant class
      (usable as a :class:`~repro.service.StreamEngine` tenant method);
    * ``offline`` -- materializes from the full sequence in one shot;
    * ``mergeable`` -- shard summaries combine losslessly, so the method
      is parallel-safe (``summarize(workers=)``) and aggregatable;
    * ``checkpointable`` -- :func:`repro.checkpoint.state_dict` supports
      the summary class;
    * ``windowed`` -- a sliding-window variant exists
      (``summarize(window=)`` / ``StreamEngine`` ``window=`` tenants);
    * ``pwl`` -- answers with piecewise-linear (sloped) buckets;
    * ``summary_class`` -- the class name, or ``None`` for offline
      methods.

    Methods registered directly in :data:`ALGORITHM_REGISTRY` without a
    spec are reported with ``custom: True`` and conservative flags.
    """
    # Imported lazily: repro.checkpoint pulls in the fleet and every
    # summary family, which plain summarize() callers never need.
    from repro.checkpoint import checkpointable

    matrix = {}
    for name in ALGORITHM_REGISTRY:
        spec = _METHOD_SPECS.get(name)
        if spec is None:
            matrix[name] = {
                "streaming": False,
                "offline": True,
                "mergeable": False,
                "checkpointable": False,
                "windowed": False,
                "pwl": False,
                "summary_class": None,
                "custom": True,
            }
            continue
        cls = spec.summary_cls
        matrix[name] = {
            "streaming": cls is not None and conforms(cls),
            "offline": cls is None,
            "mergeable": spec.mergeable,
            "checkpointable": cls is not None and checkpointable(cls),
            "windowed": spec.windowed_cls is not None,
            "pwl": spec.pwl,
            "summary_class": cls.__name__ if cls is not None else None,
            "custom": False,
        }
    return matrix


def _method_lines() -> str:
    """One capability line per method, for error messages."""
    lines = []
    for name, caps in methods().items():
        flags = [
            flag
            for flag in (
                "streaming", "offline", "mergeable", "checkpointable",
                "windowed", "pwl", "custom",
            )
            if caps[flag]
        ]
        lines.append(f"  {name}: {', '.join(flags) if flags else '-'}")
    return "\n".join(lines)


# -- one-shot builders (the ALGORITHM_REGISTRY contract) ----------------------


def _oneshot(
    method: str, values, buckets: int, epsilon: float, window=None
) -> Histogram:
    """Run a streaming method through an ephemeral service session.

    The single code route behind both the registry builders and
    ``summarize(window=)``: build the summary via :func:`build_summary`,
    append once through a :class:`~repro.service.Session` stream, query
    the histogram (whose meta the session fills in from the summary).
    """
    spec = _METHOD_SPECS[method]
    universe = _universe_for(values) if spec.needs_universe else None
    summary = build_summary(
        method,
        buckets=buckets,
        epsilon=epsilon,
        universe=universe,
        window=window,
    )
    return _run_attached(method, summary, values, buckets)


def _run_attached(label: str, summary, values, buckets: int) -> Histogram:
    """One-shot session run of a prebuilt summary (shared ingest route)."""
    # Imported lazily to keep the module import graph acyclic: the
    # service engine imports repro.api for build_summary.
    from repro.service import Session

    with Session() as session:
        handle = session.attach("oneshot", summary, method=label)
        handle.append(values)
        return handle.histogram(requested_buckets=buckets)


def _registry_builder(method: str):
    """The ``(values, buckets, epsilon)`` one-shot builder of ``method``."""
    offline = _METHOD_SPECS[method].offline
    if offline is not None:
        return lambda values, buckets, epsilon: offline(values, buckets)
    return lambda values, buckets, epsilon: _oneshot(
        method, values, buckets, epsilon
    )


#: Registry mapping :func:`summarize` method names to builders.  Each
#: builder takes ``(values, buckets, epsilon)`` and returns a
#: :class:`~repro.core.histogram.Histogram`.  Extend it to register a new
#: method name; ``SUMMARIZE_METHODS`` is derived from the keys and
#: :func:`methods` reports per-method capabilities.
ALGORITHM_REGISTRY = {name: _registry_builder(name) for name in _METHOD_SPECS}


def __getattr__(name: str):
    # Derived, not stored: reflects later registry additions (PEP 562).
    if name == "SUMMARIZE_METHODS":
        return tuple(ALGORITHM_REGISTRY)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _construct_summary_class(cls: type, values, buckets: int, epsilon: float):
    """Build ``cls`` with whichever of our shared kwargs it accepts."""
    try:
        params = inspect.signature(cls).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        params = {}
    kwargs = {}
    if "buckets" in params:
        kwargs["buckets"] = buckets
    if "epsilon" in params:
        kwargs["epsilon"] = epsilon
    if "universe" in params:
        kwargs["universe"] = _universe_for(values)
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise InvalidParameterError(
            f"cannot construct {cls.__name__} from (buckets, epsilon, "
            f"universe): {exc}"
        ) from None


def summarize(
    values: Sequence,
    buckets: int,
    *,
    method: Union[str, type] = "min-increment",
    epsilon: float = 0.1,
    workers: Union[None, int, str] = None,
    window: Optional[int] = None,
    backend: str = "object",
) -> Histogram:
    """Build a maximum-error histogram of ``values`` in one call.

    Parameters
    ----------
    values:
        The full sequence (non-negative numbers; integer sequences get
        exact guarantees).  Iterators and generators are accepted and
        materialized once.  NumPy arrays are used as-is -- never copied --
        and flow through the vectorized batch-ingest path.
    buckets:
        Bucket budget ``B``.  ``"min-merge"`` returns up to ``2 B``
        buckets (that is its theorem); every other method stays within
        ``B``.
    method:
        A name from :data:`ALGORITHM_REGISTRY`:

        * ``"min-increment"`` (default) -- streaming (1 + eps, 1);
        * ``"min-merge"`` -- streaming (1, 2);
        * ``"pwl"`` -- streaming piecewise-linear (1 + eps, 1);
        * ``"pwl-min-merge"`` -- streaming piecewise-linear (1, 2) with
          exact hulls (up to ``2 B`` buckets, like ``"min-merge"``);
        * ``"optimal"`` -- exact offline optimum (Theorem 6);
        * ``"optimal-pwl"`` -- near-exact offline piecewise-linear;

        or a summary class (e.g. ``MinMergeHistogram``) conforming to the
        :class:`~repro.core.interface.StreamingSummary` protocol.
        :func:`methods` reports each name's capabilities.
    epsilon:
        Approximation parameter for the streaming methods.
    workers:
        Multi-core shard ingest for the merge-capable methods
        (:data:`PARALLEL_METHODS`): ``None`` (default) stays serial, a
        positive int pins the worker count, ``"auto"`` sizes to the
        machine with a serial cut-off.  The parallel result keeps the
        method's approximation guarantee and is deterministic for a fixed
        worker count, but its buckets may differ from the serial run's (a
        different, equally valid, merge schedule -- see ``docs/API.md``).
        Other methods raise: MIN-INCREMENT ladder state is not mergeable.
    window:
        Route to the sliding-window variant covering the last ``window``
        items: ``method="min-increment"`` becomes
        :class:`~repro.core.sliding_window.SlidingWindowMinIncrement` and
        ``method="pwl"`` becomes
        :class:`~repro.core.sliding_window_pwl.SlidingWindowPwlMinIncrement`.
        Methods without a windowed variant raise; ``window`` cannot be
        combined with ``workers`` (windowed ladder state is not
        mergeable).
    backend:
        Deprecated and ignored: the MIN-MERGE family has one maintenance
        kernel.  ``"object"`` and ``"soa"`` are still accepted where the
        old API accepted them (:func:`check_backend`).

    Returns
    -------
    Histogram
        With :class:`~repro.core.histogram.HistogramMeta` attached
        (``hist.meta``): the method name, buckets used vs requested, the
        reported max error, items seen, and the window/epsilon in effect.
    """
    if not hasattr(values, "__len__"):
        # Generators / iterators: materialize once so len(), min()/max()
        # (universe sizing), and the stream pass all see the same data.
        values = list(values)
    if len(values) == 0:
        raise InvalidParameterError("cannot summarize an empty sequence")
    if window is not None and window < 1:
        raise InvalidParameterError(f"window must be >= 1, got {window}")
    check_backend(backend, method)
    if workers is not None and workers != 1:
        if window is not None:
            raise InvalidParameterError(
                "window= cannot be combined with workers=: sliding-window "
                "ladder state is not mergeable across shards"
            )
        hist = _summarize_workers(values, buckets, method, workers)
        return hist.with_meta(
            HistogramMeta(
                method=method if isinstance(method, str) else method.__name__,
                buckets=len(hist),
                requested_buckets=buckets,
                error=hist.error,
                items_seen=len(values),
            )
        )
    if isinstance(method, type):
        if window is not None:
            raise InvalidParameterError(
                "window= is only supported for registry method names, "
                "not summary classes; construct the windowed class "
                "directly instead"
            )
        summary = _construct_summary_class(method, values, buckets, epsilon)
        return _run_attached(method.__name__, summary, values, buckets)
    if window is not None:
        _check_windowed(method)
        return _oneshot(method, values, buckets, epsilon, window=window)
    builder = ALGORITHM_REGISTRY.get(method)
    if builder is None:
        raise InvalidParameterError(
            f"unknown method {method!r}; known methods "
            f"(see repro.api.methods()):\n{_method_lines()}"
        )
    hist = builder(values, buckets, epsilon)
    if hist.meta is not None:
        return hist
    spec = _METHOD_SPECS.get(method)
    return hist.with_meta(
        HistogramMeta(
            method=method,
            buckets=len(hist),
            requested_buckets=buckets,
            error=hist.error,
            items_seen=len(values),
            epsilon=epsilon if spec is not None and spec.needs_universe else None,
        )
    )


def _summarize_workers(values, buckets: int, method, workers) -> Histogram:
    """Dispatch ``summarize(..., workers=)`` to the parallel executor."""
    if not isinstance(method, str) or method not in PARALLEL_METHODS:
        label = method.__name__ if isinstance(method, type) else repr(method)
        raise InvalidParameterError(
            f"workers= is only supported for the merge-capable methods "
            f"({', '.join(PARALLEL_METHODS)}), not {label}: MIN-INCREMENT "
            "ladder state is not mergeable, so its shards cannot be "
            "combined without replaying raw values (see docs/API.md, "
            "'Parallel ingest')"
        )
    # Imported lazily: repro.parallel pulls in concurrent.futures and the
    # aggregation layer, which plain serial summarize() never needs.
    from repro.parallel import ParallelSummarizer

    summarizer = ParallelSummarizer(method, buckets=buckets, workers=workers)
    return summarizer.summarize(values).histogram()


def _universe_for(values: Sequence) -> int:
    """Smallest valid universe covering the observed values.

    Accepts any non-empty iterable.  Iterators are materialized (they
    would otherwise be consumed here and arrive empty at the ingest
    pass); all-equal and zero-only inputs produce the minimum legal
    universe of 2; negative minima raise with a shift hint (the ladder
    domain is ``[0, U)``).
    """
    if not hasattr(values, "__len__"):
        # Defensive: summarize() materializes before calling us, but this
        # helper is also reached via _construct_summary_class with
        # caller-supplied data.  Consuming a one-shot iterator here would
        # silently leave nothing for the ingest pass.
        values = list(values)
    if len(values) == 0:
        raise InvalidParameterError(
            "cannot size a universe from an empty sequence"
        )
    if isinstance(values, np.ndarray):
        # Vectorized reduction: iterating an ndarray with builtin max()
        # boxes every element into a NumPy scalar.
        top = values.max()
        low = values.min()
    else:
        top = max(values)
        low = min(values)
    if low < 0:
        raise InvalidParameterError(
            "the ladder-based methods need non-negative values; shift the "
            f"series first (got minimum {low})"
        )
    return max(2, int(top) + 1)
