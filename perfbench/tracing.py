"""Spans around calls into the program's public functions.

A :class:`Tracer` replaces a function or method with a wrapper that
records one span per call: name, key (for example the stream id), start,
end, and the time covered by nested spans on the same thread, so that a
span's self time is its duration minus its children's.  Spans are kept
in memory and written out when the process ends.

Server, router and worker processes are traced through
``hook/sitecustomize.py``, which calls :func:`install_service_spans` at
interpreter start-up when ``PERFBENCH_TRACE_DIR`` is set, and dumps the
spans there at exit.  (kernel-mix needs no wrappers: its own loop times
every call into the library.)

Timestamps are ``time.monotonic()``: one system-wide clock on Linux, so
spans from a server can be placed inside the client request that caused
them.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    """Records ``(name, key, start, end, child_seconds, extra, thread)`` spans."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        *,
        key: Optional[Callable] = None,
        extra: Optional[Callable] = None,
    ) -> None:
        """Trace ``owner.attr``.

        ``key(args)`` labels the span; ``extra(args, result, before)``
        attaches a number measured after the call, where ``before`` is
        what ``extra(args, None, None)`` returned before it.
        """
        original = getattr(owner, attr)
        spans = self.spans
        stack_of = self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = stack_of()
            frame = [0.0]
            stack.append(frame)
            before = extra(args, None, None) if extra is not None else None
            start = time.monotonic()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
            spans.append(
                (
                    name,
                    key(args) if key is not None else None,
                    start,
                    end,
                    frame[0],
                    extra(args, result, before) if extra is not None else None,
                    threading.get_ident(),
                )
            )
            return result

        setattr(owner, attr, traced)

    def dump(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans}, handle)
        os.replace(tmp, path)


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _snapshot_bytes(args, result, before):
    store = args[0]
    if result is None:
        return None
    return _file_size(os.path.join(store.directory, f"snapshot-{result:08d}.json"))


def _journal_bytes(args, result, before):
    size = _file_size(args[0].path)
    return size if before is None else size - before


def _replayed(args, result, before):
    report = args[0].last_recovery
    return None if report is None or result is None else report.replayed_items


def install_service_spans(tracer: Tracer) -> None:
    """Spans at every layer boundary a served request crosses.

    Engine (``StreamEngine.append``/``histogram``), resilience
    (``CheckpointStore.ingest``/``save``/``recover``,
    ``ItemJournal.append``/``sync``, ``os.fsync``), checkpoint
    serialization, the binary frame decoder, the router's forwarding
    calls, and the MIN-MERGE / MIN-INCREMENT kernels.
    """
    from repro.core.min_increment import MinIncrementHistogram
    from repro.core.min_merge import MinMergeHistogram
    from repro.resilience import journal, store
    from repro.service import engine, wire
    from repro.service.cluster import router

    stream = lambda args: str(args[1])  # noqa: E731 - (self, stream_id, ...)
    count = lambda args, result, before: len(args[1])  # noqa: E731
    tracer.wrap(engine.StreamEngine, "append", "engine.append", key=stream)
    tracer.wrap(engine.StreamEngine, "histogram", "engine.histogram", key=stream)
    tracer.wrap(store.CheckpointStore, "ingest", "store.ingest", extra=lambda a, r, b: len(a[2]))
    tracer.wrap(store.CheckpointStore, "save", "store.save", extra=_snapshot_bytes)
    tracer.wrap(store.CheckpointStore, "recover", "store.recover", extra=_replayed)
    tracer.wrap(
        journal.ItemJournal, "append", "journal.append", extra=_journal_bytes
    )
    tracer.wrap(journal.ItemJournal, "sync", "journal.sync")
    tracer.wrap(store, "state_dict", "checkpoint.state_dict")
    tracer.wrap(store, "restore", "checkpoint.restore")
    tracer.wrap(os, "fsync", "os.fsync")
    tracer.wrap(wire, "decode_append_payload", "wire.decode")
    tracer.wrap(router.ClusterRouter, "append", "router.append", key=stream)
    tracer.wrap(router.ClusterRouter, "call_stream", "router.call", key=stream)
    for cls, family in (
        (MinMergeHistogram, "min-merge"),
        (MinIncrementHistogram, "min-increment"),
    ):
        tracer.wrap(cls, "extend", f"kernel.extend.{family}", extra=count)
        tracer.wrap(cls, "histogram", f"kernel.histogram.{family}")


class Span:
    """One recorded call; ``thread`` is ``(pid, thread id)``."""

    __slots__ = ("name", "key", "start", "end", "child", "extra", "thread")

    def __init__(self, pid, name, key, start, end, child, extra, tid):
        self.name, self.key, self.start, self.end = name, key, start, end
        self.child, self.extra, self.thread = child, extra, (pid, tid)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.end - self.start - self.child


def load_spans(directory: str) -> List[Span]:
    """Every span dumped into ``directory`` by traced processes."""
    spans: List[Span] = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name), "r", encoding="utf-8") as handle:
                dump = json.load(handle)
            spans.extend(Span(dump["pid"], *s) for s in dump["spans"])
    return spans


def children(spans: List[Span]) -> Callable[[Span], List[Span]]:
    """``within(span)``: the spans its thread ran inside its interval."""
    import bisect

    per_thread: Dict[tuple, List[Span]] = defaultdict(list)
    for span in spans:
        per_thread[span.thread].append(span)
    starts = {}
    for thread, group in per_thread.items():
        group.sort(key=lambda s: s.start)
        starts[thread] = [s.start for s in group]

    def within(span: Span) -> List[Span]:
        group = per_thread[span.thread]
        lo = bisect.bisect_left(starts[span.thread], span.start)
        hi = bisect.bisect_right(starts[span.thread], span.end)
        return [s for s in group[lo:hi] if s is not span and s.end <= span.end]

    return within


def by_name(spans: List[Span]) -> Dict[str, List[Span]]:
    grouped: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        grouped[span.name].append(span)
    return grouped
