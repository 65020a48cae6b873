"""The service's one operation layer, shared by every transport.

JSON lines and binary frames (:mod:`repro.service.server`) and HTTP/REST
(:mod:`repro.service.http`) are codecs: they decode a request into an op
name plus a plain ``dict`` of arguments, call :func:`run`, and encode the
``(ok, payload)`` it returns.  Everything between -- the op table, the
stream-config keys and their coercion, the create-or-fetch stream rule,
the append value validator and the exception -> error-code mapping --
lives here once, so the three transports cannot drift apart.

Which ops a front serves is read from its engine: each op names the
engine method it needs, and an engine without that method answers
``unknown-op`` (a single-process :class:`~repro.service.StreamEngine` has
no ``cluster_view``; the cluster router's proxy engine has no ``adopt``).

The module also holds :class:`Front`, the bind/serve/stop lifecycle both
socket fronts share.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from math import isfinite
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.exceptions import UnknownStreamError
from repro.service import wire
from repro.service.errors import (
    BadRequestError,
    ErrorCode,
    InvalidRequestError,
    classify_exception,
)

_log = logging.getLogger(__name__)

#: Stream-creation config keys and the type a text value (an HTTP query
#: parameter) is parsed to.  JSON-typed values pass through unchanged and
#: are validated by the engine.
STREAM_CONFIG: Dict[str, type] = {
    "method": str,
    "buckets": int,
    "epsilon": float,
    "universe": int,
    "window": int,
    "backend": str,
}

#: Most workers one ``grow`` request may add: each is an OS process, and
#: the count arrives from a client.
MAX_GROW = 16

#: ``op name -> (function(engine, request) -> payload, engine method it
#: needs or None)``.
OPS: Dict[str, Tuple[Callable[..., dict], Optional[str]]] = {}


def supports(engine, op: str) -> bool:
    """Whether ``engine`` serves ``op`` (the op exists and so does the
    engine method it calls)."""
    spec = OPS.get(op)
    return spec is not None and (
        spec[1] is None or callable(getattr(engine, spec[1], None))
    )


def error(code: ErrorCode, message: str) -> dict:
    """The error payload every codec encodes (``ok`` added by the codec)."""
    return {"error": str(code), "message": message}


async def run(engine, op, request: dict) -> Tuple[bool, dict]:
    """Run one op on the executor; returns ``(ok, payload)``.

    The only exception boundary of the service: whatever an op raises is
    mapped by :func:`~repro.service.errors.classify_exception`, so a bug
    answers ``internal`` on every transport instead of dropping the
    connection.
    """
    if not isinstance(op, str) or not supports(engine, op):
        known = isinstance(op, str) and op in OPS
        served = "is not served by this server" if known else "is unknown"
        return False, error(ErrorCode.UNKNOWN_OP, f"op {op!r} {served}")
    loop = asyncio.get_running_loop()
    try:
        payload = await loop.run_in_executor(None, OPS[op][0], engine, request)
    except Exception as exc:  # noqa: BLE001 - classified and answered
        code, message = classify_exception(exc)
        if code == ErrorCode.INTERNAL:
            _log.exception("op %r failed", op)
        return False, error(code, message)
    return True, payload


def _op(name: str, needs: Optional[str] = None):
    def register(fn):
        OPS[name] = (fn, needs)
        return fn

    return register


# -- argument helpers -----------------------------------------------------------


def stream_config(request: dict) -> dict:
    """The request's non-null stream-config fields, text parsed per key."""
    config = {}
    for key, kind in STREAM_CONFIG.items():
        value = request.get(key)
        if isinstance(value, str) and kind is not str:
            try:
                value = kind(value)
            except ValueError:
                raise InvalidRequestError(
                    f"{key}={value!r} is not a valid {kind.__name__}"
                ) from None
        if value is not None:
            config[key] = value
    return config


def check_values(values):
    """An append's values, validated the same way for every transport.

    A number becomes a one-item list; a list must hold only finite
    numbers.  Booleans are not numbers here, and NaN/inf are rejected:
    the kernels' comparisons are only defined for ordered values.  An
    ndarray comes from :func:`repro.service.wire.decode_values`, which
    has already checked it.
    """
    if isinstance(values, np.ndarray):
        return values
    if type(values) in (int, float):
        values = [values]
    if not isinstance(values, list):
        raise BadRequestError('"values" must be a JSON array or a number')
    for value in values:
        kind = type(value)
        if kind is float:
            if not isfinite(value):
                raise BadRequestError(wire.NON_FINITE)
        elif kind is not int:
            raise BadRequestError(f"append values must be numbers, got {value!r}")
    return values


def resolve_stream(engine, stream_id: str, config: dict):
    """Create-or-fetch a stream handle.

    A request without config addresses the stream as it exists (whatever
    its method) and creates it with the defaults only when it is new;
    config is consulted at creation or to verify a match.
    """
    if not config:
        try:
            return engine.handle(stream_id)
        except UnknownStreamError:
            pass
    return engine.stream(stream_id, **config)


def _flag(value) -> bool:
    if isinstance(value, str):
        return value.lower() in ("1", "true", "yes")
    return bool(value)


def _int(request: dict, key: str, default: int) -> int:
    try:
        return int(request.get(key, default))
    except (TypeError, ValueError):
        raise BadRequestError(f'"{key}" must be an integer') from None


def _optional_stream(request: dict) -> Optional[str]:
    stream = request.get("stream")
    return None if stream is None else str(stream)


# -- the op table (functions run on executor threads) -----------------------------


@_op("append", needs="stream")
def _append(engine, request: dict) -> dict:
    if "values" not in request:
        raise BadRequestError('append needs "values"')
    values = check_values(request["values"])
    handle = resolve_stream(engine, str(request["stream"]), stream_config(request))
    return {"accepted": handle.append(values), "stream": handle.stream_id}


@_op("query", needs="histogram")
def _query(engine, request: dict) -> dict:
    stream_id = str(request["stream"])
    if _flag(request.get("drain")):
        engine.drain()
    return {"stream": stream_id, "histogram": engine.histogram(stream_id).to_dict()}


@_op("stats", needs="stats")
def _stats(engine, request: dict) -> dict:
    return {"stats": engine.stats(_optional_stream(request))}


@_op("checkpoint", needs="checkpoint")
def _checkpoint(engine, request: dict) -> dict:
    return {"generations": engine.checkpoint(_optional_stream(request))}


@_op("streams", needs="streams")
def _streams(engine, request: dict) -> dict:
    return {"streams": list(engine.streams())}


@_op("drain", needs="drain")
def _drain(engine, request: dict) -> dict:
    """Barrier: every accepted batch applied before the response."""
    engine.drain()
    return {"drained": True}


@_op("ping")
def _ping(engine, request: dict) -> dict:
    return {"pong": True}


@_op("adopt", needs="adopt")
def _adopt(engine, request: dict) -> dict:
    """Cluster-internal: recover a manifested stream from shared disk."""
    handle = engine.adopt(str(request["stream"]))
    return {"stream": handle.stream_id, "items_seen": handle.items_seen}


@_op("release", needs="release")
def _release(engine, request: dict) -> dict:
    """Cluster-internal: drain + snapshot + drop a stream (handoff)."""
    stream_id = str(request["stream"])
    generation = engine.release(
        stream_id, checkpoint=_flag(request.get("checkpoint", True))
    )
    return {"stream": stream_id, "generation": generation}


@_op("cluster", needs="cluster_view")
def _cluster(engine, request: dict) -> dict:
    return {"cluster": engine.cluster_view()}


@_op("rebalance", needs="rebalance")
def _rebalance(engine, request: dict) -> dict:
    return {"moves": engine.rebalance(_int(request, "max_moves", 1))}


@_op("grow", needs="grow")
def _grow(engine, request: dict) -> dict:
    count = _int(request, "count", 1)
    if count > MAX_GROW:
        raise InvalidRequestError(
            f"grow adds at most {MAX_GROW} workers per request, got {count}"
        )
    return engine.grow(count)


@_op("restart", needs="restart_worker")
def _restart(engine, request: dict) -> dict:
    worker = request.get("worker")
    if not worker:
        raise BadRequestError('restart must name the worker: {"worker": "w0"}')
    return engine.restart_worker(str(worker))


# -- the shared front lifecycle ---------------------------------------------------


class Front:
    """Bind, serve and stop one asyncio socket front over an engine.

    Parameters
    ----------
    engine:
        The :class:`~repro.service.StreamEngine` (or the cluster router's
        proxy engine) to expose; the front never closes it.
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    executor_workers:
        Size of a dedicated thread pool for engine calls.  ``None`` (the
        default) uses the loop's default executor -- right for a
        single-process engine, whose per-stream locks serialize most
        work anyway.  The cluster router sets this higher: its "engine"
        calls are blocking round trips to backend workers, so the pool
        size caps the router's concurrent in-flight backend requests.

    Subclasses set :attr:`read_limit` (the stream reader's line cap) and
    implement ``_serve(reader, writer)`` for one connection.
    """

    read_limit = 64 * 1024

    def __init__(
        self,
        engine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        executor_workers: Optional[int] = None,
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self.executor_workers = executor_workers
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    async def start(self) -> None:
        """Bind and start accepting connections (on the running loop)."""
        self._loop = asyncio.get_running_loop()
        if self.executor_workers is not None:
            from concurrent.futures import ThreadPoolExecutor

            # asyncio.run() shuts the default executor down with the
            # loop, so the pool's lifetime tracks the front's.
            self._loop.set_default_executor(
                ThreadPoolExecutor(
                    max_workers=self.executor_workers,
                    thread_name_prefix=f"{type(self).__name__}-io",
                )
            )
        self._server = await asyncio.start_server(
            self._connection, self.host, self.port, limit=self.read_limit
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started.set()

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until :meth:`stop` or cancellation."""
        if self._server is None:
            await self.start()
        try:
            async with self._server:
                await self._server.serve_forever()
        except asyncio.CancelledError:
            # stop() closes the server from another thread, which lands
            # here as a cancellation of the serving future -- a clean exit.
            pass

    def run(self) -> None:
        """Blocking entry point (the CLI ``serve`` subcommand)."""
        try:
            asyncio.run(self.serve_forever())
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            pass

    def start_in_background(self):
        """Run the front on a daemon thread; returns ``self`` once bound."""
        self._thread = threading.Thread(
            target=self.run, name=type(self).__name__, daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError(f"{type(self).__name__} failed to start within 10s")
        return self

    def stop(self) -> None:
        """Stop accepting connections and unwind the background thread."""
        loop, server = self._loop, self._server
        if loop is not None and server is not None:
            loop.call_soon_threadsafe(server.close)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    async def _connection(self, reader, writer) -> None:
        try:
            await self._serve(reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                # CancelledError: the loop is tearing down (stop());
                # finishing normally here keeps teardown quiet.
                pass

    async def _serve(self, reader, writer) -> None:
        raise NotImplementedError
