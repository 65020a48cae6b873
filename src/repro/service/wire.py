"""Binary wire framing for the streaming service (protocol version 2).

Newline-delimited JSON (protocol 1, :mod:`repro.service.server`) parses
every appended value into a Python object before the batch reaches the
vectorized ingest kernels -- the wire format caps the hot path.  This
module defines the length-prefixed binary framing negotiated per
connection via the ``hello`` op (``docs/WIRE.md``), designed so an
append batch travels socket -> ``ndarray`` with **zero per-item Python
objects**:

Frame layout (all header fields network byte order)::

    +--------+---------+--------+----------------+=================+
    | magic  | version | opcode | payload length |     payload     |
    | u16    | u8      | u8     | u32            |  length bytes   |
    +--------+---------+--------+----------------+=================+

Opcodes:

* ``OP_JSON`` (0x01) -- payload is one UTF-8 JSON request object, the
  exact schema of the JSON line protocol.  The slow-path ops (query,
  stats, checkpoint, ...) ride in these frames.
* ``OP_APPEND`` (0x02) -- the hot path.  Payload is a small JSON meta
  header (stream id + optional creation config) followed by raw IEEE-754
  float64 values, little endian::

      +----------+------------------+========================+
      | meta len | meta JSON        | float64 values (LE)    |
      | u32      | meta-len bytes   | 8 bytes per value      |
      +----------+------------------+========================+

  The receiver maps the value region with ``numpy.frombuffer`` over a
  ``memoryview`` -- no copy, no per-item boxing -- and feeds the ndarray
  straight to the engine's batched ``extend()``.
* ``OP_OK`` (0x81) / ``OP_ERR`` (0x82) -- responses; payload is the JSON
  response object of the line protocol (``{"ok": true, ...}`` /
  ``{"ok": false, "error": ..., "message": ...}``).

Values are always transmitted as float64.  Integer payloads below 2**53
are exact in float64, and every summary computes bucket arithmetic in
float, so histograms built from the binary path are bit-identical to the
JSON path (pinned by ``tests/test_wire.py``).  Non-finite payloads
(NaN/inf) are rejected at the wire with a ``bad-request`` error: the
kernels' comparison semantics are only defined for ordered values.

This module is transport-agnostic: it only encodes/decodes ``bytes``.
The asyncio server and the blocking client each own their I/O loops.
"""

from __future__ import annotations

import json
import struct
from typing import Optional, Union

import numpy as np

#: First two bytes of every binary frame.  0xF5 is not valid ASCII/UTF-8
#: lead byte material for a JSON document, so a binary frame can never be
#: mistaken for a JSON request line (and vice versa).
MAGIC = 0xF548

#: Version of the framing described above (the ``hello`` op negotiates
#: protocol *numbers*; this versions the frame layout within protocol 2).
WIRE_VERSION = 1

#: Protocol numbers exchanged by ``hello``: 1 = JSON lines, 2 = binary.
PROTO_JSON = 1
PROTO_BINARY = 2
ALL_PROTOCOLS = (PROTO_JSON, PROTO_BINARY)

#: Hard cap on a frame payload (matches the JSON line limit): a hostile
#: length prefix must not make the receiver buffer unbounded memory.
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024

OP_JSON = 0x01
OP_APPEND = 0x02
OP_OK = 0x81
OP_ERR = 0x82

_OPCODES = frozenset({OP_JSON, OP_APPEND, OP_OK, OP_ERR})

HEADER = struct.Struct("!HBBI")
HEADER_BYTES = HEADER.size  # 8

_META_LEN = struct.Struct("!I")

#: Value payload dtype: IEEE-754 binary64, little endian, as documented.
VALUE_DTYPE = np.dtype("<f8")

#: The one message every transport answers a NaN/inf append with.
NON_FINITE = "append payload contains non-finite (NaN/inf) values"


class WireError(ValueError):
    """A malformed, truncated, or protocol-violating binary frame.

    Maps to the ``bad-request`` error code on the wire.  Subclasses
    ``ValueError`` so generic request-parsing error handling catches it.
    """


def encode_frame(opcode: int, payload: bytes = b"") -> bytes:
    """One complete frame: header + payload."""
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise WireError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame cap"
        )
    return HEADER.pack(MAGIC, WIRE_VERSION, opcode, len(payload)) + payload


def encode_json_frame(opcode: int, payload: dict) -> bytes:
    """A frame whose payload is one compact JSON object."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return encode_frame(opcode, body)


def decode_header(header: bytes) -> tuple[int, int]:
    """Validate an 8-byte header; returns ``(opcode, payload_length)``.

    Raises :class:`WireError` on bad magic, an unsupported wire version,
    an unknown opcode, or an oversized length -- the caller should answer
    ``bad-request`` and close, since a framing error desynchronizes the
    byte stream unrecoverably.
    """
    if len(header) != HEADER_BYTES:
        raise WireError(
            f"truncated frame header: {len(header)} of {HEADER_BYTES} bytes"
        )
    magic, version, opcode, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise WireError(f"bad frame magic 0x{magic:04x} (expected 0x{MAGIC:04x})")
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version} (this side speaks "
            f"{WIRE_VERSION})"
        )
    if opcode not in _OPCODES:
        raise WireError(f"unknown opcode 0x{opcode:02x}")
    if length > MAX_PAYLOAD_BYTES:
        raise WireError(
            f"frame payload of {length} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte cap"
        )
    return opcode, length


def decode_json_payload(payload: Union[bytes, memoryview]) -> dict:
    """The JSON object inside an ``OP_JSON`` / ``OP_OK`` / ``OP_ERR`` frame."""
    try:
        obj = json.loads(bytes(payload))
    except ValueError as exc:
        raise WireError(f"frame payload is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise WireError("frame payload must be a JSON object")
    return obj


def encode_append_payload(meta: dict, values: np.ndarray) -> tuple[bytes, memoryview]:
    """Encode an ``OP_APPEND`` frame as ``(head, value_bytes)``.

    ``head`` is the frame header + meta section; ``value_bytes`` is a
    memoryview over the value array's own buffer, so a float64
    C-contiguous input is transmitted **without copying** (the caller
    writes the two parts back to back).  Non-float64 or non-contiguous
    inputs are converted once.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise WireError(f"append payload must be 1-D, got shape {arr.shape}")
    if arr.dtype != VALUE_DTYPE or not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr, dtype=VALUE_DTYPE)
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    length = _META_LEN.size + len(meta_bytes) + arr.nbytes
    if length > MAX_PAYLOAD_BYTES:
        raise WireError(
            f"append frame of {length} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte cap; split the batch"
        )
    head = (
        HEADER.pack(MAGIC, WIRE_VERSION, OP_APPEND, length)
        + _META_LEN.pack(len(meta_bytes))
        + meta_bytes
    )
    return head, memoryview(arr).cast("B")


def decode_values(buffer: Union[bytes, bytearray, memoryview]) -> np.ndarray:
    """Zero-copy float64 view over a raw little-endian value region.

    The shared tail of every raw-value ingest path: the ``OP_APPEND``
    frame decoder below and the HTTP facade's
    ``application/octet-stream`` append bodies
    (:mod:`repro.service.http`) both map the bytes with
    ``numpy.frombuffer`` -- read-only, no copy, no per-item boxing.
    Raises :class:`WireError` when the region is not a whole number of
    float64s or contains non-finite (NaN/inf) values.
    """
    view = memoryview(buffer)
    if len(view) % VALUE_DTYPE.itemsize:
        raise WireError(
            f"value region of {len(view)} bytes is not a whole number "
            f"of float64 values"
        )
    values = np.frombuffer(view, dtype=VALUE_DTYPE)
    if values.size and not bool(np.isfinite(values).all()):
        raise WireError(NON_FINITE)
    return values


def decode_append_payload(
    payload: Union[bytes, bytearray, memoryview],
) -> tuple[dict, np.ndarray]:
    """Decode an ``OP_APPEND`` payload to ``(meta, values)``.

    The returned array is a **zero-copy view** over ``payload`` (via
    ``numpy.frombuffer``); it is read-only, which is exactly what the
    batched ingest path needs.  Raises :class:`WireError` on a truncated
    meta section, a value region that is not a whole number of float64s,
    or non-finite (NaN/inf) values.
    """
    view = memoryview(payload)
    if len(view) < _META_LEN.size:
        raise WireError("append payload truncated before the meta length")
    (meta_len,) = _META_LEN.unpack_from(view, 0)
    value_off = _META_LEN.size + meta_len
    if value_off > len(view):
        raise WireError(
            f"append meta section of {meta_len} bytes overruns the "
            f"{len(view)}-byte payload"
        )
    meta = decode_json_payload(view[_META_LEN.size : value_off])
    if "stream" not in meta:
        raise WireError('append meta must carry a "stream" id')
    return meta, decode_values(view[value_off:])


def negotiate(client_protocols, server_protocols) -> Optional[int]:
    """Highest protocol both sides speak, or ``None`` when disjoint.

    Unknown protocol numbers are ignored (forward compatibility: a v3
    client offering ``[1, 2, 3]`` negotiates 2 with this server).
    """
    try:
        offered = {int(p) for p in client_protocols}
    except (TypeError, ValueError):
        return None
    usable = offered & {int(p) for p in server_protocols}
    return max(usable) if usable else None
