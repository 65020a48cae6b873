"""Cluster router: one front listener, N engine-worker processes.

:class:`ClusterRouter` is the scale-out front of the service layer
(``docs/CLUSTER.md``).  It spawns ``workers`` single-shard service
processes (:mod:`repro.service.cluster.worker`), places every stream on
exactly one of them with a consistent-hash ring
(:class:`~repro.service.cluster.ring.HashRing`), and serves the same
JSON/binary wire protocol clients already speak -- a client cannot tell
a router from a single-process server.

The router reuses :class:`~repro.service.StreamServer` unchanged: its
"engine" is a :class:`_ProxyEngine` that implements the engine surface
by forwarding each operation to the owning worker over pooled
:class:`~repro.service.ServiceClient` connections (binary-negotiated, so
zero-copy append frames stay zero-copy end to end).

**Worker death and adoption.**  Every stream is durable: workers share
one checkpoint root (``<cluster-dir>/tenants``) and acknowledge an
append only after it is journaled and fsynced.  When a backend call
fails and the worker process is confirmed dead, the router removes the
node from the ring (surviving keys do not move -- the consistent-hash
property), then tells each orphaned stream's new owner to ``adopt`` it:
the survivor recovers snapshot + journal tail from the shared directory,
bit-identical to the uninterrupted run.  Acknowledged appends are never
lost; the one batch that was in flight on the dying connection is
reported ``unavailable`` to its client, which may observe it as either
fully applied or fully absent (batch atomicity), never torn.

**Live handoff.**  :meth:`handoff` moves one stream between live
workers: new requests for the stream gate on a router-side lock,
in-flight appends drain FIFO on the donor (``release`` = drain +
snapshot + close), the target adopts from shared disk, and an override
pins the stream to its new home until the ring changes again.

**Self-healing.**  :meth:`restart_worker` is the inverse of a kill: it
re-spawns a dead (or drains a live) worker under the same name, extends
the ring, and hands the worker's natural streams back one at a time via
the same FIFO-drained handoff.  :meth:`grow` adds fresh workers to a
running cluster and migrates only the minimally-moved keys (the
consistent-hash property).  Both spawn the new process with
``--no-recover`` so it starts empty and receives state exclusively
through handoff -- never by racing the live owners for shared
checkpoints.  A :class:`~repro.service.cluster.rebalance.Rebalancer`
can drive :meth:`handoff` continuously from per-worker load statistics.
"""

from __future__ import annotations

import json
import os
import queue
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, Optional, Sequence

from repro.core.histogram import Histogram
from repro.exceptions import InvalidParameterError
from repro.service import wire
from repro.service.client import ServiceClient
from repro.service.cluster.ring import DEFAULT_REPLICAS, HashRing
from repro.service.cluster.worker import TENANTS_DIR, port_file, tenants_dir
from repro.service.errors import UnavailableError
from repro.service.server import StreamServer

_MANIFEST = "stream.json"

#: Exceptions that mean "the connection to the worker broke", as opposed
#: to a well-formed error response (ServiceError) from a live worker.
_LINK_ERRORS = (ConnectionError, OSError, wire.WireError)


class _WorkerLink:
    """Router-side view of one worker: process, endpoint, connection pool."""

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        process: Optional[subprocess.Popen],
        *,
        pool_size: int = 4,
        timeout: float = 30.0,
    ) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.process = process
        self.pool_size = pool_size
        self.timeout = timeout
        self.dead = False
        self._pool: queue.SimpleQueue = queue.SimpleQueue()

    @contextmanager
    def lease(self):
        """Borrow a pooled connection (created on demand, returned clean).

        A connection that saw any exception is closed rather than
        pooled: after a transport error its stream position is unknown.
        """
        try:
            client = self._pool.get_nowait()
        except queue.Empty:
            client = ServiceClient(self.host, self.port, timeout=self.timeout)
        clean = False
        try:
            yield client
            clean = True
        finally:
            if clean and not self.dead and self._pool.qsize() < self.pool_size:
                self._pool.put(client)
            else:
                client.close()

    def call(self, payload: dict) -> dict:
        """One raw request/response round trip on a pooled connection."""
        with self.lease() as client:
            return client.transport.call(payload)

    def close_pool(self) -> None:
        while True:
            try:
                self._pool.get_nowait().close()
            except queue.Empty:
                return
            except _LINK_ERRORS:  # pragma: no cover - close is best-effort
                pass

    def alive(self) -> bool:
        return self.process is None or self.process.poll() is None


class ClusterRouter:
    """Spawn, front, and supervise a sharded service cluster.

    Parameters
    ----------
    cluster_dir:
        Shared state root.  ``<cluster_dir>/tenants`` holds every
        stream's checkpoint store (all workers write their own streams
        there; adoption reads a dead worker's); ``<cluster_dir>/workers``
        holds endpoint files and per-worker logs.
    workers:
        Worker process count (>= 1).  Restarting a router over an
        existing ``cluster_dir`` with the same worker names recovers
        every manifested stream.
    checkpoint_every:
        Forwarded to each worker engine (periodic snapshots; the journal
        makes recovery exact regardless).
    executor_workers:
        Front-side thread pool: the cap on concurrently in-flight
        backend requests (default 32).
    pool_size:
        Pooled backend connections kept per worker (more are created
        under burst and discarded back down to this size).
    http_port:
        Mount the HTTP/REST facade (:mod:`repro.service.http`) on this
        port beside the TCP front (``0`` picks a free port, read back
        from :attr:`http_port`); ``None`` (the default) serves TCP only.
    """

    def __init__(
        self,
        cluster_dir,
        *,
        workers: int = 3,
        host: str = "127.0.0.1",
        port: int = 0,
        checkpoint_every: Optional[int] = None,
        replicas: int = DEFAULT_REPLICAS,
        protocols: Sequence[int] = wire.ALL_PROTOCOLS,
        executor_workers: int = 32,
        pool_size: int = 4,
        worker_timeout: float = 30.0,
        http_port: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        self.cluster_dir = os.fspath(cluster_dir)
        self.worker_count = workers
        self.host = host
        self._requested_port = port
        self._requested_http_port = http_port
        self.checkpoint_every = checkpoint_every
        self.replicas = replicas
        self.protocols = protocols
        self.executor_workers = executor_workers
        self.pool_size = pool_size
        self.worker_timeout = worker_timeout
        self.server: Optional[StreamServer] = None
        self.http = None  # Optional[repro.service.http.HttpFrontend]
        self.deaths = 0
        self.adoptions: Dict[str, str] = {}
        self.handoffs = 0
        self.restarts = 0
        self.grown = 0
        self._workers: Dict[str, _WorkerLink] = {}
        self._ring: Optional[HashRing] = None
        self._overrides: Dict[str, str] = {}
        self._topology_lock = threading.RLock()
        self._gates: Dict[str, threading.Lock] = {}
        self._gates_lock = threading.Lock()
        self._logs: list = []

    # -- lifecycle ----------------------------------------------------------

    @property
    def port(self) -> int:
        """The front listener's bound port (after :meth:`start`)."""
        if self.server is None:
            raise InvalidParameterError("router is not started")
        return self.server.port

    def __enter__(self) -> "ClusterRouter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def start(self) -> "ClusterRouter":
        """Spawn the workers, wait for their endpoints, bind the front."""
        names = [f"w{i}" for i in range(self.worker_count)]
        os.makedirs(tenants_dir(self.cluster_dir), exist_ok=True)
        workers_dir = os.path.join(self.cluster_dir, "workers")
        os.makedirs(workers_dir, exist_ok=True)
        for name in names:
            try:
                os.unlink(port_file(self.cluster_dir, name))
            except FileNotFoundError:
                pass
        processes = {name: self._spawn(name, names) for name in names}
        try:
            for name in names:
                port = self._await_endpoint(name, processes[name])
                self._workers[name] = _WorkerLink(
                    name,
                    self.host,
                    port,
                    processes[name],
                    pool_size=self.pool_size,
                    timeout=self.worker_timeout,
                )
        except BaseException:
            for process in processes.values():
                process.kill()
            raise
        self._ring = HashRing(names, replicas=self.replicas)
        proxy = _ProxyEngine(self)
        self.server = StreamServer(
            proxy,
            host=self.host,
            port=self._requested_port,
            protocols=self.protocols,
            executor_workers=self.executor_workers,
        )
        self.server.start_in_background()
        if self._requested_http_port is not None:
            from repro.service.http import HttpFrontend

            self.http = HttpFrontend(
                proxy,
                host=self.host,
                port=self._requested_http_port,
                executor_workers=self.executor_workers,
            )
            self.http.start_in_background()
        return self

    @property
    def http_port(self) -> int:
        """The REST facade's bound port (requires ``http_port=`` at init)."""
        if self.http is None:
            raise InvalidParameterError(
                "router has no HTTP frontend (pass http_port= to enable it)"
            )
        return self.http.port

    def stop(self) -> None:
        """Stop the front, then terminate the workers (SIGTERM, then kill)."""
        if self.http is not None:
            self.http.stop()
            self.http = None
        if self.server is not None:
            self.server.stop()
            self.server = None
        for link in self._workers.values():
            link.close_pool()
            process = link.process
            if process is not None and process.poll() is None:
                process.terminate()
        for link in self._workers.values():
            process = link.process
            if process is not None:
                try:
                    process.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    process.kill()
                    process.wait(timeout=5.0)
        for log in self._logs:
            log.close()
        self._logs.clear()

    def _spawn(
        self, name: str, ring_names: Sequence[str], *, recover: bool = True
    ) -> subprocess.Popen:
        import repro

        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        cmd = [
            sys.executable,
            "-m",
            "repro.service.cluster.worker",
            "--cluster-dir",
            self.cluster_dir,
            "--name",
            name,
            "--ring",
            ",".join(ring_names),
            "--host",
            self.host,
            "--replicas",
            str(self.replicas),
        ]
        if self.checkpoint_every is not None:
            cmd += ["--checkpoint-every", str(self.checkpoint_every)]
        if not recover:
            # Restarted/grown workers start empty: their streams arrive
            # exclusively via handoff, never by racing the live owners
            # for the shared checkpoint directories at startup.
            cmd += ["--no-recover"]
        log = open(
            os.path.join(self.cluster_dir, "workers", f"{name}.log"), "ab"
        )
        self._logs.append(log)
        return subprocess.Popen(cmd, env=env, stdout=log, stderr=log)

    def _await_endpoint(self, name: str, process: subprocess.Popen) -> int:
        path = port_file(self.cluster_dir, name)
        deadline = time.monotonic() + self.worker_timeout
        while time.monotonic() < deadline:
            if process.poll() is not None:
                raise RuntimeError(
                    f"worker {name} exited with code {process.returncode} "
                    f"before publishing its port (see "
                    f"{self.cluster_dir}/workers/{name}.log)"
                )
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    record = json.load(handle)
                if record.get("pid") == process.pid:
                    return int(record["port"])
            except (FileNotFoundError, ValueError):
                pass
            time.sleep(0.02)
        raise RuntimeError(
            f"worker {name} did not publish a port within "
            f"{self.worker_timeout:g}s"
        )

    # -- topology ------------------------------------------------------------

    def workers(self) -> tuple:
        """Names of the live workers (sorted)."""
        with self._topology_lock:
            return tuple(sorted(self._ring.nodes)) if self._ring else ()

    def owner_of(self, stream_id: str) -> str:
        """The worker currently responsible for a stream key."""
        with self._topology_lock:
            override = self._overrides.get(stream_id)
            if override is not None:
                return override
            return self._ring.node_for(stream_id)

    def _link_for(self, stream_id: str) -> _WorkerLink:
        with self._topology_lock:
            return self._workers[self.owner_of(stream_id)]

    def _live_links(self) -> list:
        with self._topology_lock:
            return [
                self._workers[name] for name in self._ring.nodes
            ]

    def kill_worker(self, name: str) -> None:
        """SIGKILL one worker process (the chaos hook for tests/benchmarks).

        Detection and adoption happen on the next request that touches
        the dead worker -- exactly as a real crash would play out.
        """
        with self._topology_lock:
            link = self._workers[name]
        if link.process is None:
            raise InvalidParameterError(f"worker {name} has no process")
        link.process.kill()
        link.process.wait(timeout=10.0)

    def _note_failure(self, link: _WorkerLink) -> bool:
        """Classify a backend link failure; adopt if the worker is dead.

        Returns ``True`` when the worker is (now) confirmed dead and its
        streams have been adopted -- the caller may re-route and retry
        idempotent operations.  ``False`` means the process still lives
        (a transient connection problem): nothing is reassigned.
        """
        with self._topology_lock:
            if link.dead:
                return True
            process = link.process
            if process is not None and process.poll() is None:
                try:
                    # A SIGKILL'd process needs a beat to be reapable;
                    # distinguish "dying" from "alive but unreachable".
                    process.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    return False
            self._adopt_from(link)
            return True

    def _adopt_from(self, dead: _WorkerLink, *, count_death: bool = True) -> None:
        """Reassign every stream of a dead worker to the survivors."""
        dead.dead = True
        dead.close_pool()
        if len(self._ring) <= 1:
            raise UnavailableError(
                f"worker {dead.name} died and no workers remain"
            )
        orphans = [
            sid
            for sid in self._manifested_streams()
            if self.owner_of(sid) == dead.name
        ]
        self._ring = self._ring.without(dead.name)
        for sid, target in list(self._overrides.items()):
            if target == dead.name:
                del self._overrides[sid]
        if count_death:
            self.deaths += 1
        for sid in orphans:
            new_owner = self.owner_of(sid)
            self._workers[new_owner].call({"op": "adopt", "stream": sid})
            self.adoptions[sid] = new_owner

    def _manifested_streams(self) -> list:
        """Every stream with a manifest under the shared tenants root."""
        root = os.path.join(self.cluster_dir, TENANTS_DIR)
        out = []
        if not os.path.isdir(root):
            return out
        for name in sorted(os.listdir(root)):
            manifest = os.path.join(root, name, _MANIFEST)
            if not os.path.isfile(manifest):
                continue
            with open(manifest, "r", encoding="utf-8") as handle:
                out.append(json.load(handle)["stream_id"])
        return out

    # -- handoff -------------------------------------------------------------

    @contextmanager
    def _gate(self, stream_id: str):
        """Per-stream mutual exclusion between requests and handoff."""
        with self._gates_lock:
            lock = self._gates.get(stream_id)
            if lock is None:
                lock = self._gates[stream_id] = threading.Lock()
        with lock:
            yield

    def handoff(self, stream_id: str, target: str) -> str:
        """Move one live stream to ``target`` without losing a value.

        New requests for the stream block on its gate; the donor drains
        its in-flight appends FIFO, snapshots, and releases; the target
        adopts from the shared directory; an override pins the stream.
        Returns the previous owner's name.
        """
        with self._gate(stream_id):
            with self._topology_lock:
                if target not in self._ring.nodes:
                    raise InvalidParameterError(
                        f"handoff target {target!r} is not a live worker "
                        f"({self._ring.nodes})"
                    )
                source = self.owner_of(stream_id)
                if source == target:
                    return source
                source_link = self._workers[source]
                target_link = self._workers[target]
            source_link.call({"op": "release", "stream": stream_id})
            target_link.call({"op": "adopt", "stream": stream_id})
            with self._topology_lock:
                if self._ring.node_for(stream_id) == target:
                    # The ring already places the stream here (a handback
                    # after restart/grow): no pin needed, and dropping a
                    # stale one lets future ring changes move the key.
                    self._overrides.pop(stream_id, None)
                else:
                    self._overrides[stream_id] = target
                self.handoffs += 1
            return source

    # -- self-healing (restart, growth) ---------------------------------------

    def _pin_then_extend(self, new_ring: HashRing, joining: set) -> list:
        """Swap in an extended ring without moving any key implicitly.

        Every manifested stream whose owner *would* change is first
        pinned (override) to its current owner, so requests keep routing
        to the live state while the caller hands each moved stream off
        one at a time.  Returns ``[(stream_id, new_owner), ...]`` for the
        caller to drive through :meth:`handoff`.  Caller must hold the
        topology lock.
        """
        moved = []
        for sid in self._manifested_streams():
            current = self.owner_of(sid)
            target = new_ring.node_for(sid)
            if target != current and target in joining:
                self._overrides[sid] = current
                moved.append((sid, target))
        self._ring = new_ring
        return moved

    def restart_worker(self, name: str) -> dict:
        """Re-spawn a dead (or drain and recycle a live) worker.

        The inverse of :meth:`kill_worker` + adoption: the worker comes
        back under its old name with an empty engine (``--no-recover``),
        rejoins the ring, and every stream the extended ring assigns to
        it is handed back via the FIFO-drained :meth:`handoff` -- so at
        no point do two processes own one checkpoint directory.  If the
        process is still alive it is drained first (SIGTERM, survivors
        adopt) -- a rolling-restart primitive.  Returns ``{"worker":
        name, "moved": [stream, ...]}``.
        """
        with self._topology_lock:
            link = self._workers.get(name)
            if link is None:
                raise InvalidParameterError(
                    f"unknown worker {name!r}; known: "
                    f"{sorted(self._workers)}"
                )
            if not link.dead:
                process = link.process
                was_alive = process is not None and process.poll() is None
                if was_alive:
                    process.terminate()
                    try:
                        process.wait(timeout=10.0)
                    except subprocess.TimeoutExpired:  # pragma: no cover
                        process.kill()
                        process.wait(timeout=10.0)
                # A graceful drain is not a death; an undetected crash is.
                self._adopt_from(link, count_death=not was_alive)
            ring_names = tuple(sorted(set(self._ring.nodes) | {name}))
        # Spawn outside the topology lock: waiting for the endpoint can
        # take seconds, and other streams' traffic must keep flowing.
        try:
            os.unlink(port_file(self.cluster_dir, name))
        except FileNotFoundError:
            pass
        process = self._spawn(name, ring_names, recover=False)
        port = self._await_endpoint(name, process)
        with self._topology_lock:
            self._workers[name] = _WorkerLink(
                name,
                self.host,
                port,
                process,
                pool_size=self.pool_size,
                timeout=self.worker_timeout,
            )
            moved = self._pin_then_extend(self._ring.extend(name), {name})
            self.restarts += 1
        for sid, target in moved:
            self.handoff(sid, target)
        return {"worker": name, "moved": [sid for sid, _ in moved]}

    def grow(self, count: int = 1) -> dict:
        """Add ``count`` fresh workers to the live ring.

        Only the minimally-moved keys migrate (the consistent-hash
        property: a key moves only if its new natural owner is one of
        the joining nodes), each via the FIFO-drained :meth:`handoff`.
        Returns ``{"workers": [names...], "moved": [stream, ...]}``.
        """
        if count < 1:
            raise InvalidParameterError(f"count must be >= 1, got {count}")
        with self._topology_lock:
            taken = set(self._workers) | set(self._ring.nodes)
            names = []
            i = 0
            while len(names) < count:
                candidate = f"w{i}"
                i += 1
                if candidate not in taken:
                    names.append(candidate)
                    taken.add(candidate)
            ring_names = tuple(sorted(set(self._ring.nodes) | set(names)))
        spawned: Dict[str, subprocess.Popen] = {}
        try:
            for name in names:
                try:
                    os.unlink(port_file(self.cluster_dir, name))
                except FileNotFoundError:
                    pass
                spawned[name] = self._spawn(name, ring_names, recover=False)
            ports = {
                name: self._await_endpoint(name, process)
                for name, process in spawned.items()
            }
        except BaseException:
            for process in spawned.values():
                process.kill()
            raise
        with self._topology_lock:
            new_ring = self._ring
            for name in names:
                self._workers[name] = _WorkerLink(
                    name,
                    self.host,
                    ports[name],
                    spawned[name],
                    pool_size=self.pool_size,
                    timeout=self.worker_timeout,
                )
                new_ring = new_ring.extend(name)
            moved = self._pin_then_extend(new_ring, set(names))
            self.grown += count
        for sid, target in moved:
            self.handoff(sid, target)
        return {"workers": names, "moved": [sid for sid, _ in moved]}

    def cluster_view(self) -> dict:
        """Ring topology + per-worker load (the ``GET /v1/cluster`` body).

        Per-worker load is taken from a live ``stats`` fan-out:
        ``streams`` (owned stream count), ``items_seen`` and
        ``pending_items`` (queue depth) -- the same signals the
        :class:`~repro.service.cluster.rebalance.Rebalancer` plans from.
        """
        per_worker: Dict[str, dict] = {}
        for name, response in sorted(self.fan_out({"op": "stats"}).items()):
            stats = response["stats"]
            streams = stats.get("streams", {})
            per_worker[name] = {
                "streams": len(streams),
                "items_seen": stats.get("items_seen", 0),
                "pending_items": stats.get("pending_items", 0),
                "appends": stats.get("appends", 0),
                "queries": stats.get("queries", 0),
            }
        with self._topology_lock:
            return {
                "workers": per_worker,
                "ring": list(self.workers()),
                "overrides": dict(self._overrides),
                "deaths": self.deaths,
                "restarts": self.restarts,
                "grown": self.grown,
                "handoffs": self.handoffs,
                "adoptions": dict(self.adoptions),
            }

    # -- request routing (called from the front's executor threads) ----------

    def append(self, stream_id: str, values, config: dict) -> int:
        """Forward one append to the owner; never auto-retried.

        A broken link mid-append is ambiguous (the batch may or may not
        have been journaled before the crash), so the router triggers
        adoption and surfaces ``unavailable`` instead of guessing --
        retrying could double-apply.  The client decides; the batch is
        atomic either way.
        """
        with self._gate(stream_id):
            link = self._link_for(stream_id)
            try:
                with link.lease() as client:
                    return client.append(stream_id, values, **config).accepted
            except _LINK_ERRORS as exc:
                self._note_failure(link)
                raise UnavailableError(
                    f"worker {link.name} failed mid-append on stream "
                    f"{stream_id!r} ({type(exc).__name__}: {exc}); the "
                    "batch is either fully applied or fully absent; the "
                    "stream has a new owner -- continue appending"
                ) from exc

    def call_stream(self, stream_id: str, payload: dict, *, gate: bool = True):
        """Route an idempotent per-stream op, retrying across adoption."""
        if gate:
            with self._gate(stream_id):
                return self._call_retry(stream_id, payload)
        return self._call_retry(stream_id, payload)

    def _call_retry(self, stream_id: str, payload: dict) -> dict:
        last: Optional[BaseException] = None
        for _ in range(self.worker_count + 1):
            link = self._link_for(stream_id)
            try:
                return link.call(payload)
            except _LINK_ERRORS as exc:
                last = exc
                if not self._note_failure(link):
                    break
        raise UnavailableError(
            f"no worker could serve {payload.get('op')!r} for stream "
            f"{stream_id!r} ({type(last).__name__}: {last})"
        ) from last

    def fan_out(self, payload: dict) -> Dict[str, dict]:
        """Run one op on every live worker; ``{worker: response}``."""
        out = {}
        for link in self._live_links():
            try:
                out[link.name] = link.call(payload)
            except _LINK_ERRORS as exc:
                if not self._note_failure(link):
                    raise UnavailableError(
                        f"worker {link.name} unreachable during "
                        f"{payload.get('op')!r} ({exc})"
                    ) from exc
        return out


class _ProxyHandle:
    """The stream-handle shape the operation layer expects, proxied."""

    __slots__ = ("_router", "stream_id", "_config")

    def __init__(self, router: ClusterRouter, stream_id: str, config: dict):
        self._router = router
        self.stream_id = stream_id
        self._config = config

    def append(self, values) -> int:
        return self._router.append(self.stream_id, values, self._config)


class _ProxyEngine:
    """The engine surface of :mod:`repro.service.ops`, implemented by
    forwarding every operation to the owning worker.

    Because the front server and the workers speak the same protocol,
    histogram payloads pass through byte-identically: what a client of
    the router decodes is exactly what the owning worker served.  It has
    no ``adopt``/``release`` (those are worker-side steps of a handoff),
    so a router front answers them ``unknown-op``; it adds the cluster
    operations, which only a router front serves.
    """

    def __init__(self, router: ClusterRouter) -> None:
        self._router = router

    # -- stream access (ops.resolve_stream) ----------------------------------

    def streams(self) -> tuple:
        merged = set()
        for response in self._router.fan_out({"op": "streams"}).values():
            merged.update(response["streams"])
        return tuple(sorted(merged))

    def handle(self, stream_id: str) -> _ProxyHandle:
        return _ProxyHandle(self._router, stream_id, {})

    def stream(self, stream_id: str, **config) -> _ProxyHandle:
        return _ProxyHandle(
            self._router,
            stream_id,
            {k: v for k, v in config.items() if v is not None},
        )

    # -- queries --------------------------------------------------------------

    def histogram(
        self, stream_id: str, *, requested_buckets: Optional[int] = None
    ) -> Histogram:
        response = self._router.call_stream(
            stream_id, {"op": "query", "stream": stream_id}
        )
        return Histogram.from_dict(response["histogram"])

    def drain(self, timeout: Optional[float] = None) -> bool:
        self._router.fan_out({"op": "drain"})
        return True

    def stats(self, stream_id: Optional[str] = None) -> dict:
        router = self._router
        if stream_id is not None:
            response = router.call_stream(
                stream_id, {"op": "stats", "stream": stream_id}, gate=False
            )
            stats = response["stats"]
            stats["worker"] = router.owner_of(stream_id)
            return stats
        merged: dict = {"streams": {}, "workers": {}}
        totals = (
            "items_seen",
            "pending_items",
            "appends",
            "rejected",
            "queries",
            "checkpoints",
            "errors",
        )
        for key in totals:
            merged[key] = 0
        for name, response in sorted(router.fan_out({"op": "stats"}).items()):
            stats = response["stats"]
            for sid, row in stats.get("streams", {}).items():
                row["worker"] = name
                merged["streams"][sid] = row
            merged["workers"][name] = {
                key: stats.get(key, 0) for key in totals
            }
            for key in totals:
                merged[key] += stats.get(key, 0)
        merged["stream_count"] = len(merged["streams"])
        merged["cluster"] = {
            "workers": list(router.workers()),
            "deaths": router.deaths,
            "restarts": router.restarts,
            "grown": router.grown,
            "adoptions": dict(router.adoptions),
            "handoffs": router.handoffs,
            "overrides": dict(router._overrides),
        }
        merged["durable"] = True
        return merged

    def checkpoint(self, stream_id: Optional[str] = None) -> dict:
        router = self._router
        if stream_id is not None:
            response = router.call_stream(
                stream_id, {"op": "checkpoint", "stream": stream_id}
            )
            return response["generations"]
        generations: dict = {}
        for response in router.fan_out({"op": "checkpoint"}).values():
            generations.update(response["generations"])
        return generations

    # -- cluster operations -----------------------------------------------------

    def cluster_view(self) -> dict:
        return self._router.cluster_view()

    def rebalance(self, max_moves: int = 1) -> list:
        """One :class:`~repro.service.cluster.rebalance.Rebalancer` pass."""
        from repro.service.cluster.rebalance import Rebalancer

        moves = Rebalancer(self._router, max_moves=max_moves).rebalance_once()
        return [move.to_dict() for move in moves]

    def grow(self, count: int = 1) -> dict:
        return self._router.grow(count)

    def restart_worker(self, name: str) -> dict:
        return self._router.restart_worker(name)
