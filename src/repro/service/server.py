"""Asyncio wire front for a :class:`~repro.service.StreamEngine`.

Every connection starts in **protocol 1**: newline-delimited JSON over
TCP -- the simplest wire format the stdlib can serve and every language
can speak.  One request per line, one response per line (see
``docs/SERVICE.md`` for the full schema)::

    {"op": "append", "stream": "sku-42", "values": [3, 1, 4],
     "method": "min-merge", "buckets": 32}
    {"ok": true, "accepted": 3}

    {"op": "query", "stream": "sku-42"}
    {"ok": true, "histogram": {"error": ..., "segments": [...],
                               "meta": {...}}}

A ``hello`` request (``{"op": "hello", "proto": [1, 2]}``) negotiates
the connection up to **protocol 2**: the length-prefixed binary framing
of :mod:`repro.service.wire` (``docs/WIRE.md``).  Binary append frames
carry raw float64 values that travel socket -> ``numpy.frombuffer`` ->
the engine's batched ``extend()`` with zero per-item Python objects --
the ingest hot path the JSON format cannot reach.  JSON remains the
default and the fallback; a connection that never says hello is served
exactly as before.

Operations: ``hello`` (negotiation, answered here) and every op of the
shared table in :mod:`repro.service.ops` that the engine serves --
``append`` (creates the stream on first use from the request's config),
``query``, ``stats``, ``checkpoint``, ``streams``, ``drain``, ``ping``,
and on matching engines ``adopt``/``release`` or the cluster ops.
Errors come back as ``{"ok": false, "error": <code>, "message": ...}``
with the codes of the unified taxonomy (:mod:`repro.service.errors`,
shared with the HTTP facade): ``backpressure`` (queue bound hit -- back
off and retry), ``invalid`` (bad parameters), ``unknown-stream`` (the
stream id is not registered), ``empty`` (query before any data),
``bad-request`` (malformed JSON, malformed binary frame, missing
values, non-finite or boolean values), ``unknown-op``, ``unavailable``
(cluster worker failed mid-request), and ``internal``.  In binary mode
a *framing* error (bad magic, bad version, oversized length)
additionally closes the connection: a desynchronized byte stream cannot
be re-synchronized.

The event loop never blocks on the engine: every engine call runs in a
thread-pool executor, so slow batch applies on one connection do not
stall others.  The engine itself is thread-safe (per-stream locks), so
any number of connections -- on either protocol -- may hit the same
stream.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Sequence

from repro.exceptions import InvalidParameterError
from repro.service import ops, wire
from repro.service.errors import ErrorCode

#: Refuse request lines longer than this many bytes (a malformed or
#: hostile client should not buffer unbounded memory server-side).
MAX_LINE_BYTES = 64 * 1024 * 1024

_SERVER_NAME = "repro-histogram"

#: First byte of the frame magic (0xF5).  It can never begin a JSON
#: document (it is not even a legal UTF-8 lead byte), so peeking one byte
#: distinguishes a stray binary frame from a JSON line without waiting
#: for a newline that a binary frame will never contain.
_MAGIC_BYTE = bytes([wire.MAGIC >> 8])


def _bad(message: str) -> dict:
    return ops.error(ErrorCode.BAD_REQUEST, message)


class StreamServer(ops.Front):
    """Serve one engine over TCP: JSON lines, with negotiated binary.

    ``engine``, ``host``, ``port`` and ``executor_workers`` are those of
    :class:`~repro.service.ops.Front`.

    Parameters
    ----------
    protocols:
        Protocol numbers this server advertises in ``hello`` responses.
        The default offers both JSON lines (1) and binary frames (2);
        pass ``(1,)`` to pin every connection to JSON (the CLI's
        ``--no-binary``).
    """

    read_limit = MAX_LINE_BYTES

    def __init__(
        self,
        engine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        protocols: Sequence[int] = wire.ALL_PROTOCOLS,
        executor_workers: Optional[int] = None,
    ) -> None:
        super().__init__(
            engine, host=host, port=port, executor_workers=executor_workers
        )
        self.protocols = tuple(int(p) for p in protocols)
        if wire.PROTO_JSON not in self.protocols:
            raise InvalidParameterError(
                "the server must always speak protocol 1 (JSON lines); "
                f"got protocols={self.protocols}"
            )

    # -- connection handling (protocol state machine) ------------------------

    async def _serve(self, reader, writer) -> None:
        """One client: JSON lines until ``hello`` negotiates binary."""
        while True:
            first = await reader.read(1)
            if not first:
                return
            if first in b"\r\n":
                continue
            if first == _MAGIC_BYTE:
                # A binary frame before negotiation: refuse loudly rather
                # than feeding frame bytes to the JSON parser (or blocking
                # on a newline the frame will never send).
                writer.write(
                    _encode_json(
                        False,
                        _bad(
                            "binary frame before negotiation; send "
                            '{"op": "hello", "proto": [1, 2]} first'
                        ),
                    )
                )
                await writer.drain()
                return
            try:
                line = first + await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                writer.write(_encode_json(False, _bad("request too long")))
                await writer.drain()
                return
            if not line.strip():
                continue
            try:
                request = json.loads(line)
            except ValueError:
                ok, payload = False, _bad("request is not valid JSON")
            else:
                if isinstance(request, dict) and request.get("op") == "hello":
                    ok, payload, proto = self._negotiate(request)
                    writer.write(_encode_json(ok, payload))
                    await writer.drain()
                    if ok and proto == wire.PROTO_BINARY:
                        await self._serve_binary(reader, writer)
                        return
                    continue
                ok, payload = await self._dispatch(request)
            writer.write(_encode_json(ok, payload))
            await writer.drain()

    async def _serve_binary(self, reader, writer) -> None:
        """Protocol 2: length-prefixed frames until EOF or framing error."""
        while True:
            try:
                opcode, length = wire.decode_header(
                    await reader.readexactly(wire.HEADER_BYTES)
                )
                payload = await reader.readexactly(length)
            except wire.WireError as exc:
                # Framing errors desynchronize the stream: answer and close.
                writer.write(_encode_frame(False, _bad(str(exc))))
                await writer.drain()
                return
            except asyncio.IncompleteReadError:
                return  # clean EOF (possibly mid-frame on abrupt close)
            ok, response = await self._dispatch_frame(opcode, payload)
            writer.write(_encode_frame(ok, response))
            await writer.drain()

    async def _dispatch_frame(self, opcode: int, payload) -> tuple[bool, dict]:
        if opcode == wire.OP_APPEND:
            # The zero-copy path: the frame's read-only float64 view goes
            # to the same append op as a JSON list.
            try:
                meta, values = wire.decode_append_payload(payload)
            except wire.WireError as exc:
                return False, _bad(str(exc))
            return await ops.run(self.engine, "append", {**meta, "values": values})
        if opcode == wire.OP_JSON:
            try:
                request = wire.decode_json_payload(payload)
            except wire.WireError as exc:
                return False, _bad(str(exc))
            if request.get("op") == "hello":
                # Re-negotiation inside binary mode is a no-op: report
                # the live protocol without switching anything.
                ok, response, _proto = self._negotiate(
                    request, active=wire.PROTO_BINARY
                )
                return ok, response
            return await self._dispatch(request)
        return False, _bad(f"unexpected opcode 0x{opcode:02x} in a request")

    async def _dispatch(self, request) -> tuple[bool, dict]:
        if not isinstance(request, dict) or "op" not in request:
            return False, _bad('request must be {"op": ..., ...}')
        return await ops.run(self.engine, request["op"], request)

    # -- negotiation ---------------------------------------------------------

    def _negotiate(
        self, request: dict, *, active: Optional[int] = None
    ) -> tuple[bool, dict, Optional[int]]:
        """Handle ``hello``; returns ``(ok, payload, negotiated_proto)``."""
        offered = request.get("proto", [wire.PROTO_JSON])
        if not isinstance(offered, (list, tuple)):
            return (
                False,
                _bad('"proto" must be a JSON array of protocol numbers'),
                None,
            )
        chosen = wire.negotiate(offered, self.protocols)
        if chosen is None:
            return (
                False,
                _bad(
                    f"no common protocol: client offered {list(offered)}, "
                    f"server speaks {list(self.protocols)}"
                ),
                None,
            )
        if active is not None:
            chosen = active
        payload = {
            "proto": chosen,
            "server": {
                "name": _SERVER_NAME,
                "wire_version": wire.WIRE_VERSION,
                "protocols": list(self.protocols),
            },
        }
        return True, payload, chosen


# -- response encoders -------------------------------------------------------


def _encode_json(ok: bool, payload: dict) -> bytes:
    body = {"ok": ok, **payload}
    return (json.dumps(body, separators=(",", ":")) + "\n").encode("utf-8")


def _encode_frame(ok: bool, payload: dict) -> bytes:
    opcode = wire.OP_OK if ok else wire.OP_ERR
    return wire.encode_json_frame(opcode, {"ok": ok, **payload})


# Backwards-compatible re-exports: the client classes lived here before
# the v2 transport split (import sites: tests, benchmarks, user code).
from repro.service.client import ServiceClient, ServiceError  # noqa: E402,F401
