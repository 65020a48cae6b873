"""HTTP/1.1 REST facade over the streaming service (``docs/REST.md``).

A stdlib-only asyncio HTTP server mounted *beside* the TCP front: the
same :class:`~repro.service.StreamEngine` (or cluster
:class:`~repro.service.cluster.ClusterRouter` proxy) serves JSON-line,
binary-frame, and REST clients simultaneously, so histograms observed
over any transport are bit-identical.  No web framework is involved --
the request loop parses request lines, headers, and ``Content-Length``
bodies directly and keeps connections alive per HTTP/1.1 semantics.

Routes (``{tenant}`` of ``-`` addresses a bare stream id, so REST and
TCP clients can hit the same streams; otherwise the stream id is
``tenant/stream``)::

    POST /v1/streams/{tenant}/{stream}:append      JSON array/object or
                                                   application/octet-stream
                                                   raw LE float64 (zero-copy)
    POST /v1/streams/{tenant}/{stream}:checkpoint  snapshot one stream
    POST /v1/streams/{tenant}/{stream}:adopt       recover from shared disk
    POST /v1/streams/{tenant}/{stream}:release     drain, snapshot, drop
    GET  /v1/streams/{tenant}/{stream}/histogram   ?drain=1 for a barrier
    GET  /v1/streams/{tenant}/{stream}/stats       per-stream counters
    GET  /v1/streams                               registered stream ids
    GET  /v1/stats                                 engine-wide statistics
    POST /v1/streams:checkpoint                    snapshot every stream
    POST /v1/streams:drain                         apply-all barrier
    GET  /v1/meta                                  capability matrix
    GET  /v1/ping                                  liveness
    GET  /v1/cluster                               ring + per-worker load
    POST /v1/cluster/rebalance                     one rebalance pass
    POST /v1/cluster/grow                          add workers live
    POST /v1/cluster/restart                       re-spawn one worker

Every route except ``meta`` names an op of :mod:`repro.service.ops`,
the operation layer the TCP front shares; this module only decodes
requests and encodes responses.  An op the engine does not implement
(the cluster routes on a single-process server, ``adopt``/``release``
on a cluster router) answers ``unknown-op``.

Error responses are ``{"ok": false, "error": <code>, "message": ...}``
with the unified taxonomy of :mod:`repro.service.errors`; the HTTP
status is the fixed per-code mapping (``backpressure`` -> 429 with
``Retry-After``, ``unknown-stream``/``unknown-op`` -> 404, ...).

**Idempotency** (``docs/REST.md``): appends are *not* idempotent and
are never retried by the service.  A client that must retry can send an
``Idempotency-Key`` header -- the facade replays the recorded response
for a repeated ``(stream, key)`` pair (bounded LRU) instead of applying
the batch twice, answering with ``Idempotency-Replayed: true``.

The module also provides the client half: :class:`HttpTransport`
implements the :class:`~repro.service.client.Transport` protocol over
``http.client``, which is how ``ServiceClient.from_url("http://...")``
speaks REST through the same typed API as the socket transports.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import re
import threading
from collections import OrderedDict
from typing import Optional, Tuple
from urllib.parse import parse_qs, quote, unquote, urlencode

import numpy as np

from repro.service import ops, wire
from repro.service.errors import (
    BadRequestError,
    ErrorCode,
    UnknownOperationError,
    http_status,
    raise_for_error,
)
from repro.service.types import ServerInfo

#: Protocol number of the REST transport (1 = JSON lines, 2 = binary
#: frames; negotiated ``hello`` protocols stay TCP-only -- this number
#: identifies the transport family in ``ServerInfo``/``/v1/meta``).
PROTO_HTTP = 3

#: Cap on one request line or header line (headers are small; bodies
#: are read separately up to :data:`MAX_BODY_BYTES`).
MAX_HEADER_LINE = 64 * 1024

#: Cap on a request body -- the same bound as a binary wire frame.
MAX_BODY_BYTES = wire.MAX_PAYLOAD_BYTES

#: Entries kept by the ``Idempotency-Key`` replay cache (LRU).
IDEMPOTENCY_CAPACITY = 1024

_SERVER_NAME = "repro-histogram"

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_SEG = r"[^/:]+"
_STREAM_RE = rf"/v1/streams/(?P<tenant>{_SEG})/(?P<stream>{_SEG})"

#: ``(method, compiled path, op name)``: each route names an op of
#: :mod:`repro.service.ops` (``meta``, the REST analogue of ``hello``, is
#: answered by the facade itself).  A stream route's path supplies the
#: ``stream`` argument; query parameters and the body supply the rest
#: (see :func:`_arguments`).
ROUTES = [
    (method, re.compile(f"^{pattern}$"), op)
    for method, pattern, op in (
        ("GET", r"/v1/meta", "meta"),
        ("GET", r"/v1/ping", "ping"),
        ("GET", r"/v1/streams", "streams"),
        ("GET", r"/v1/stats", "stats"),
        ("POST", r"/v1/streams:checkpoint", "checkpoint"),
        ("POST", r"/v1/streams:drain", "drain"),
        ("POST", _STREAM_RE + r":append", "append"),
        ("POST", _STREAM_RE + r":checkpoint", "checkpoint"),
        ("POST", _STREAM_RE + r":adopt", "adopt"),
        ("POST", _STREAM_RE + r":release", "release"),
        ("GET", _STREAM_RE + r"/histogram", "query"),
        ("GET", _STREAM_RE + r"/stats", "stats"),
        ("GET", r"/v1/cluster", "cluster"),
        ("POST", r"/v1/cluster/rebalance", "rebalance"),
        ("POST", r"/v1/cluster/grow", "grow"),
        ("POST", r"/v1/cluster/restart", "restart"),
    )
]


def _error_body(message: str, code: ErrorCode = ErrorCode.BAD_REQUEST) -> dict:
    """The uniform JSON error document (``docs/REST.md``)."""
    return {"ok": False, **ops.error(code, message)}


def _stream_id(match: "re.Match") -> str:
    """The engine stream id addressed by a matched stream route.

    Tenant ``-`` is the "no tenant" marker: ``/v1/streams/-/sku-42``
    addresses the bare id ``sku-42`` (what TCP clients use), while any
    other tenant prefixes it (``acme/sku-42``).  Segments are
    percent-decoded after routing, so an encoded ``%2F`` stays inside
    its segment.
    """
    tenant = unquote(match.group("tenant"))
    stream = unquote(match.group("stream"))
    return stream if tenant == "-" else f"{tenant}/{stream}"


def stream_path(stream_id: str) -> str:
    """The REST path prefix addressing ``stream_id`` (client side)."""
    if "/" in stream_id:
        tenant, _, rest = stream_id.partition("/")
        return f"/v1/streams/{quote(tenant, safe='')}/{quote(rest, safe='')}"
    return f"/v1/streams/-/{quote(stream_id, safe='')}"


#: Ops whose REST body, when present, is a JSON object of arguments
#: whatever its Content-Type; the other routes except ``append`` ignore
#: the body.
_OBJECT_BODY_OPS = frozenset({"rebalance", "grow", "restart"})


def _json_document(body: bytes):
    try:
        return json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise BadRequestError(f"request body is not valid JSON: {exc}") from exc


def _append_body(headers: dict, body: bytes) -> dict:
    """An append body's arguments: a JSON array as ``values``, a JSON
    object's fields, or an ``application/octet-stream`` body as raw
    little-endian float64 ``values`` (the binary append frame's
    zero-copy decode)."""
    content_type = headers.get("content-type", "application/json")
    content_type = content_type.split(";")[0].strip().lower()
    if content_type == "application/octet-stream":
        try:
            return {"values": wire.decode_values(body)}
        except wire.WireError as exc:
            raise BadRequestError(str(exc)) from exc
    if content_type not in ("application/json", "text/json", ""):
        raise BadRequestError(
            f"unsupported Content-Type {content_type!r}; send "
            "application/json or application/octet-stream"
        )
    if not body:
        return {}
    document = _json_document(body)
    if isinstance(document, list):
        return {"values": document}
    if isinstance(document, dict):
        return document
    raise BadRequestError("append body must be a JSON array of values or an object")


def _arguments(
    op: str, match: "re.Match", query_string: str, headers: dict, body: bytes
) -> dict:
    """Decode one REST request into the op's argument dict.

    Query parameters come first, then the body (:func:`_append_body` for
    ``append``, a JSON object for the :data:`_OBJECT_BODY_OPS`).  A
    stream route's path names the stream.
    """
    request = {key: values[-1] for key, values in parse_qs(query_string).items()}
    if op == "append":
        request.update(_append_body(headers, body))
    elif op in _OBJECT_BODY_OPS and body:
        document = _json_document(body)
        if not isinstance(document, dict):
            raise BadRequestError("request body must be a JSON object")
        request.update(document)
    if "stream" in match.re.groupindex:
        request["stream"] = _stream_id(match)
    return request


class _IdempotencyCache:
    """Bounded LRU of ``(stream, Idempotency-Key) -> response payload``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._data: OrderedDict = OrderedDict()

    def get(self, key) -> Optional[dict]:
        with self._lock:
            try:
                value = self._data.pop(key)
            except KeyError:
                return None
            self._data[key] = value
            return value

    def put(self, key, value: dict) -> None:
        with self._lock:
            self._data.pop(key, None)
            self._data[key] = value
            while len(self._data) > IDEMPOTENCY_CAPACITY:
                self._data.popitem(last=False)


class _Reject(Exception):
    """A request the connection cannot continue past: answer, then close."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _readline(reader, what: str) -> bytes:
    try:
        return await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise _Reject(400, f"{what} too long") from None


async def _read_request(reader) -> Optional[tuple]:
    """``(method, target, version, headers, body)``, or ``None`` on EOF."""
    line = b"\r\n"
    while line in (b"\r\n", b"\n"):
        line = await _readline(reader, "request line")
        if not line:
            return None
    parts = line.split()
    if len(parts) != 3:
        raise _Reject(400, "malformed request line")
    method, target, version = (part.decode("latin-1") for part in parts)
    headers: dict = {}
    while True:
        line = await _readline(reader, "header line")
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            return None  # EOF mid-headers
        name, sep, value = line.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding"):
        raise _Reject(
            400, "chunked request bodies are not supported; send Content-Length"
        )
    raw_length = headers.get("content-length")
    if raw_length is None:
        return method, target, version, headers, b""
    try:
        length = int(raw_length)
        if length < 0:
            raise ValueError
    except ValueError:
        raise _Reject(400, "bad Content-Length") from None
    if length > MAX_BODY_BYTES:
        raise _Reject(
            413,
            f"request body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte cap",
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        return None
    return method, target, version, headers, body


async def _answer(
    writer,
    status: int,
    payload: dict,
    keep_alive: bool,
    extra: Tuple[Tuple[str, str], ...] = (),
) -> None:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra)
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()


class HttpFrontend(ops.Front):
    """Serve one engine (or cluster proxy) over HTTP/1.1 REST.

    ``engine``, ``host``, ``port`` and ``executor_workers`` are those of
    :class:`~repro.service.ops.Front`.  The routes an engine cannot serve
    (``/v1/cluster*`` on a single-process engine) answer ``unknown-op``.
    """

    read_limit = MAX_HEADER_LINE

    def __init__(
        self,
        engine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        executor_workers: Optional[int] = None,
    ) -> None:
        super().__init__(
            engine, host=host, port=port, executor_workers=executor_workers
        )
        self._idempotency = _IdempotencyCache()

    async def _serve(self, reader, writer) -> None:
        """One client: HTTP/1.1 request/response with keep-alive."""
        while True:
            try:
                request = await _read_request(reader)
            except _Reject as exc:
                await _answer(writer, exc.status, _error_body(str(exc)), False)
                return
            if request is None:
                return
            method, target, version, headers, body = request
            status, payload, extra = await self._respond(
                method, target, headers, body
            )
            keep_alive = (
                version == "HTTP/1.1"
                and headers.get("connection", "").lower() != "close"
            )
            await _answer(writer, status, payload, keep_alive, extra)
            if not keep_alive:
                return

    async def _respond(
        self, method: str, target: str, headers: dict, body: bytes
    ) -> tuple:
        """Route one request; returns ``(status, payload, extra_headers)``."""
        raw_path, _, query_string = target.partition("?")
        allowed = set()
        for route_method, pattern, op in ROUTES:
            match = pattern.match(raw_path)
            if match is None:
                continue
            if route_method != method:
                allowed.add(route_method)
                continue
            if op == "meta":
                return 200, {"ok": True, **self._meta()}, ()
            return await self._call(op, match, query_string, headers, body)
        if allowed:
            return (
                405,
                _error_body(
                    f"method {method} not allowed for {raw_path} "
                    f"(allowed: {', '.join(sorted(allowed))})"
                ),
                (("Allow", ", ".join(sorted(allowed))),),
            )
        return (
            404,
            _error_body(f"no route {method} {raw_path}", ErrorCode.UNKNOWN_OP),
            (),
        )

    async def _call(self, op, match, query_string, headers, body) -> tuple:
        """Decode the arguments, run the op, encode status and body.

        An append carrying an ``Idempotency-Key`` replays the response
        recorded for the same ``(stream, key)`` instead of applying the
        batch again; failed appends are not recorded.
        """
        key = headers.get("idempotency-key") if op == "append" else None
        try:
            request = _arguments(op, match, query_string, headers, body)
        except BadRequestError as exc:
            ok, payload = False, ops.error(ErrorCode.BAD_REQUEST, exc.message)
        else:
            cached = self._idempotency.get((request["stream"], key)) if key else None
            if cached is not None:
                return 200, {"ok": True, **cached}, (("Idempotency-Replayed", "true"),)
            ok, payload = await ops.run(self.engine, op, request)
            if ok and key:
                self._idempotency.put((request["stream"], key), payload)
        if ok:
            return 200, {"ok": True, **payload}, ()
        code = payload["error"]
        extra = (("Retry-After", "1"),) if code == ErrorCode.BACKPRESSURE else ()
        return http_status(code), {"ok": False, **payload}, extra

    def _meta(self) -> dict:
        from repro import api

        return {
            "server": {
                "name": _SERVER_NAME,
                "wire_version": wire.WIRE_VERSION,
                "protocols": [PROTO_HTTP],
                "cluster": ops.supports(self.engine, "cluster"),
            },
            "methods": api.methods(),
            "endpoints": sorted(
                f"{method} {pattern.pattern[1:-1]}" for method, pattern, _ in ROUTES
            ),
        }


# -- client transport ----------------------------------------------------------


class HttpTransport:
    """REST client half: the :class:`Transport` protocol over HTTP.

    One keep-alive ``http.client`` connection; each op maps to its REST
    route, and error responses raise the same typed exceptions as the
    socket transports (one taxonomy, whatever the wire).  Connection
    failures surface as ``ConnectionError``/``OSError`` exactly like the
    socket transports, so retry/reconnect logic is transport-agnostic.
    """

    proto = PROTO_HTTP

    def __init__(self, host: str, port: int, *, timeout: float = 30.0) -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[dict] = None,
    ) -> dict:
        send_headers = {"Accept": "application/json"}
        if headers:
            send_headers.update(headers)
        self._conn.request(method, path, body=body, headers=send_headers)
        response = self._conn.getresponse()
        data = response.read()  # must drain for keep-alive reuse
        try:
            document = json.loads(data)
        except ValueError as exc:
            raise wire.WireError(
                f"non-JSON response (HTTP {response.status}) from "
                f"{method} {path}"
            ) from exc
        return raise_for_error(document)

    def call(self, request: dict) -> dict:
        """Map one request object onto its REST route; one round trip."""
        op = str(request.get("op"))
        stream = request.get("stream")
        if op == "query":
            path = f"{stream_path(str(stream))}/histogram"
            if request.get("drain"):
                path += "?drain=1"
            return self._request("GET", path)
        if op == "stats":
            if stream is None:
                return self._request("GET", "/v1/stats")
            return self._request("GET", f"{stream_path(str(stream))}/stats")
        if op == "checkpoint":
            if stream is None:
                return self._request("POST", "/v1/streams:checkpoint")
            return self._request(
                "POST", f"{stream_path(str(stream))}:checkpoint"
            )
        if op == "streams":
            return self._request("GET", "/v1/streams")
        if op == "ping":
            return self._request("GET", "/v1/ping")
        if op == "drain":
            return self._request("POST", "/v1/streams:drain")
        if op == "append":
            rest = {
                key: request[key]
                for key in ops.STREAM_CONFIG
                if request.get(key) is not None
            }
            return self.append(
                str(stream), request.get("values", []), rest
            )
        raise UnknownOperationError(
            f"op {op!r} has no REST mapping (the HTTP transport speaks "
            "append/query/stats/checkpoint/streams/ping/drain)"
        )

    def append(self, stream: str, values, config: dict) -> dict:
        """Append as one ``application/octet-stream`` body (raw float64)."""
        arr = np.asarray(values)
        if arr.dtype != wire.VALUE_DTYPE or not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr, dtype=wire.VALUE_DTYPE)
        params = {
            key: config[key] for key in sorted(config) if config[key] is not None
        }
        path = f"{stream_path(stream)}:append"
        if params:
            path += f"?{urlencode(params)}"
        return self._request(
            "POST",
            path,
            body=memoryview(arr).cast("B"),
            headers={"Content-Type": "application/octet-stream"},
        )

    def close(self) -> None:
        """Close the connection."""
        self._conn.close()


def connect_http(
    host: str, port: int, timeout: float = 30.0
) -> tuple[HttpTransport, ServerInfo]:
    """Connect a REST transport and learn the server identity from
    ``/v1/meta`` (the plumbing behind ``ServiceClient.from_url``)."""
    transport = HttpTransport(host, port, timeout=timeout)
    try:
        meta = transport._request("GET", "/v1/meta")
    except BaseException:
        transport.close()
        raise
    server = meta.get("server", {})
    info = ServerInfo(
        proto=PROTO_HTTP,
        protocols=tuple(server.get("protocols", (PROTO_HTTP,))),
        server=server.get("name", _SERVER_NAME),
        wire_version=server.get("wire_version"),
        negotiated=False,
    )
    return transport, info
