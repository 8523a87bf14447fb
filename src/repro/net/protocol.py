"""Wire protocol: length-prefixed JSON frames and typed error codes.

Framing
-------

Every message — request or response — is one *frame*::

    +----------------+----------------------------------+
    | length (4B !I) | UTF-8 JSON payload (length bytes)|
    +----------------+----------------------------------+

The length prefix is an unsigned big-endian 32-bit integer counting the
payload bytes only.  Frames above :data:`MAX_FRAME_BYTES` are rejected
before any allocation, so a garbage prefix cannot make the server
allocate gigabytes.

Envelopes
---------

Requests carry ``{"v": 2, "op": ..., "id": ...}`` plus op-specific
fields (``pairs`` for ``query``, ``ops`` for ``update``).  Responses
echo ``v`` and ``id`` and carry either ``"ok": true`` with result fields
— queries additionally report the ``epoch`` the answers are valid at and
whether the server answered in ``degraded`` mode — or ``"ok": false``
with a structured ``error`` object::

    {"v": 2, "id": 7, "ok": false,
     "error": {"code": "unknown_vertex", "message": "...", "vertex": 99}}

Protocol v2 (backward compatible — servers accept every version in
:data:`SUPPORTED_VERSIONS`) adds the observability envelope fields:

* requests may carry ``"trace"``, a compact hex trace id minted by
  :func:`repro.obs.trace.new_trace_id` (the server mints one at
  admission for untraced peers), and ``query`` requests may set
  ``"timings": true`` to opt into the stage breakdown;
* replies echo ``"trace"`` and, when timings were requested, carry
  ``"timings"``: the read-lock wait, probe time, cache hit/miss counts
  and the request's total server time (a reader worker reports probe
  and total time plus its worker id and snapshot generation);
* the ``health`` op returns the live index-health payload
  (:func:`repro.obs.health.collect_health`).

The ``stats`` op replies with the server's metric-registry snapshot
under ``"registry"`` (what ``repro metrics --connect`` renders); a
multi-process server adds ``workers``, ``writer_pid``,
``worker_restarts`` and ``writer_restarts``.

v1 peers see none of this: their envelopes carry no ``trace`` field and
their replies are byte-compatible with the v1 server's.

Error codes are stable strings (:data:`ERROR_CODES`); the client maps
them back onto the library's exception hierarchy with
:func:`raise_for_error`, so ``UnknownVertexError`` thrown inside the
index surfaces as ``UnknownVertexError`` in the caller's process — a
structured response, not a connection teardown.

JSON round-trips tuple vertices as lists;
:func:`~repro.core.ops.hashable_vertex` restores them on the way in.

The ``update`` envelope's ``ops`` field carries
:meth:`repro.core.ops.UpdateOp.to_dict` dicts — the same encoding WAL
records use — via :func:`encode_update_ops` / :func:`decode_update_ops`,
so the service, the log, and the wire all speak one format.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Optional

from ..core.ops import UpdateOp, hashable_vertex
from ..errors import (
    OverloadedError,
    ProtocolError,
    ReproError,
    SerializationError,
    UnknownVertexError,
    VertexNotFoundError,
    WriterUnavailableError,
)

__all__ = [
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "MAX_FRAME_BYTES",
    "ERROR_CODES",
    "encode_frame",
    "decode_payload",
    "send_frame_sync",
    "recv_frame_file",
    "ok_response",
    "error_response",
    "error_fields_for",
    "raise_for_error",
    "wire_pairs",
    "encode_update_ops",
    "decode_update_ops",
]

#: Version tag new clients send; bumped when the envelope grows.
PROTOCOL_VERSION = 2

#: Every version the server still speaks.  v1 lacks the trace/timings
#: envelope fields and the ``health`` op, but its query/update/ping/stats
#: requests are served unchanged.
SUPPORTED_VERSIONS = (1, 2)

#: Hard ceiling on one frame's JSON payload (16 MiB).
MAX_FRAME_BYTES = 16 * 1024 * 1024

_HEADER = struct.Struct("!I")

#: code -> human description.  ``retryable`` codes are transient
#: conditions a client may retry; the rest are caller mistakes or
#: persistent server-side failures.
ERROR_CODES = {
    "bad_request": "malformed request envelope or fields",
    "unsupported_version": "protocol version not spoken by this server",
    "unknown_op": "request op not recognized",
    "unknown_vertex": "a queried or updated vertex is not indexed",
    "serialization": "a persisted artifact failed to decode server-side",
    "overloaded": "request shed by admission control; retry later",
    "writer_unavailable": "the writer process is down/restarting; "
                          "retry after the hinted backoff",
    "internal": "unexpected server-side failure",
}


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------

def encode_frame(payload: dict) -> bytes:
    """Serialize *payload* as one length-prefixed frame."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload is {len(body)} bytes; max {MAX_FRAME_BYTES}"
        )
    return _HEADER.pack(len(body)) + body


def decode_payload(body: bytes) -> dict:
    """Parse one frame's JSON payload into a dict."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame payload is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def send_frame_sync(sock, payload: dict) -> None:
    """Send *payload* as one frame on a blocking socket."""
    sock.sendall(encode_frame(payload))


def recv_frame_file(rfile) -> Optional[dict]:
    """Read one frame from a buffered binary reader (``None`` on EOF).

    With *rfile* from ``sock.makefile("rb")``, the header and body of a
    typical frame come out of one underlying ``recv``.  Callers that
    hold a request/reply socket (the client) want this; the serving
    loop keeps its own buffer.
    """
    header = rfile.read(_HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise ProtocolError("connection closed mid-frame")
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds max {MAX_FRAME_BYTES}"
        )
    body = rfile.read(length)
    if body is None or len(body) < length:
        raise ProtocolError("connection closed mid-frame")
    return decode_payload(body)


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------

def ok_response(request_id, **fields) -> dict:
    """A success envelope echoing *request_id*."""
    out = {"v": PROTOCOL_VERSION, "id": request_id, "ok": True}
    out.update(fields)
    return out


def error_response(request_id, code: str, message: str, **extra) -> dict:
    """A structured-error envelope echoing *request_id*."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    error: dict[str, Any] = {"code": code, "message": message}
    error.update(extra)
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": False,
        "error": error,
    }


def error_fields_for(exc: BaseException) -> dict:
    """Map an exception onto ``{"code": ..., "message": ..., ...}``.

    The inverse of :func:`raise_for_error`: whatever the service layer
    throws becomes a structured, connection-preserving error reply.
    """
    # UnknownVertexError comes from the index/service layers,
    # VertexNotFoundError from graph-backed paths (the condensation
    # front-end, degraded BFS over the graph); on the wire they are the
    # same condition.
    if isinstance(exc, (UnknownVertexError, VertexNotFoundError)):
        return {
            "code": "unknown_vertex",
            "message": str(exc),
            "vertex": exc.vertex,
        }
    if isinstance(exc, SerializationError):
        return {"code": "serialization", "message": str(exc)}
    if isinstance(exc, OverloadedError):
        return {
            "code": "overloaded",
            "message": str(exc),
            "retry_after_ms": exc.retry_after_ms,
        }
    if isinstance(exc, WriterUnavailableError):
        return {
            "code": "writer_unavailable",
            "message": str(exc),
            "retry_after_ms": exc.retry_after_ms,
        }
    if isinstance(exc, ProtocolError):
        return {"code": "bad_request", "message": str(exc)}
    return {"code": "internal", "message": f"{type(exc).__name__}: {exc}"}


def raise_for_error(error: dict) -> None:
    """Re-raise the exception a response's ``error`` object encodes."""
    code = error.get("code", "internal")
    message = error.get("message", "")
    if code == "unknown_vertex":
        raise UnknownVertexError(hashable_vertex(error.get("vertex")))
    if code == "serialization":
        raise SerializationError(message)
    if code == "overloaded":
        raise OverloadedError(message, error.get("retry_after_ms", 0.0))
    if code == "writer_unavailable":
        raise WriterUnavailableError(
            message, error.get("retry_after_ms", 500.0)
        )
    if code in ("bad_request", "unsupported_version", "unknown_op"):
        raise ProtocolError(f"{code}: {message}")
    raise ReproError(f"{code}: {message}")


# ----------------------------------------------------------------------
# Vertex coding
# ----------------------------------------------------------------------

def encode_update_ops(ops) -> list:
    """Encode an ``update`` envelope's ``ops`` field.

    Each element must be an :class:`~repro.core.ops.UpdateOp`; the
    result is a list of its canonical :meth:`to_dict` dicts.

    Raises
    ------
    TypeError
        When an element is not an :class:`~repro.core.ops.UpdateOp`.
    """
    out = []
    for op in ops:
        if not isinstance(op, UpdateOp):
            raise TypeError(
                f"update ops must be UpdateOp values, got {type(op).__name__}"
            )
        out.append(op.to_dict())
    return out


def decode_update_ops(raw) -> list:
    """Validate and decode a request's ``ops`` field into UpdateOps.

    Accepts legacy short-kind dicts (versioned
    :meth:`~repro.core.ops.UpdateOp.from_dict`), so older clients keep
    working.

    Raises
    ------
    ProtocolError
        When *raw* is not a non-empty list of decodable op dicts.
    """
    if not isinstance(raw, list) or not raw:
        raise ProtocolError("'ops' must be a non-empty list of update dicts")
    try:
        return [UpdateOp.from_dict(o) for o in raw]
    except ReproError as exc:
        raise ProtocolError(f"bad update op: {exc}") from None


def wire_pairs(raw) -> list:
    """Validate and decode a request's ``pairs`` field.

    Raises
    ------
    ProtocolError
        When *raw* is not a list of two-element ``[source, target]``
        entries.
    """
    if not isinstance(raw, list):
        raise ProtocolError(
            f"'pairs' must be a list, got {type(raw).__name__}"
        )
    pairs = []
    append = pairs.append
    for entry in raw:
        # Scalar-vertex fast path: the overwhelmingly common shape is
        # [s, t] with JSON scalars, which needs no per-vertex recursion.
        if type(entry) is list and len(entry) == 2:
            s, t = entry
            if type(s) is not list and type(t) is not list:
                append((s, t))
            else:
                append((hashable_vertex(s), hashable_vertex(t)))
            continue
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ProtocolError(
                f"each pair must be [source, target], got {entry!r}"
            )
        append((hashable_vertex(entry[0]), hashable_vertex(entry[1])))
    return pairs
