"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming mistakes such as :class:`TypeError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "VertexNotFoundError",
    "VertexExistsError",
    "EdgeNotFoundError",
    "EdgeExistsError",
    "NotADagError",
    "IndexStateError",
    "SerializationError",
    "UnsupportedFormatError",
    "UnknownVertexError",
    "OrderError",
    "DatasetError",
    "WorkloadError",
    "NetworkError",
    "ProtocolError",
    "OverloadedError",
    "WriterUnavailableError",
    "CircuitOpenError",
    "DeadlineExceededError",
    "SnapshotError",
    "SnapshotUnavailableError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Base class for errors concerning graph structure or graph operations."""


class VertexNotFoundError(GraphError, KeyError):
    """A referenced vertex does not exist in the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(vertex)
        self.vertex = vertex

    def __str__(self) -> str:  # KeyError repr-quotes its arg; keep it readable.
        return f"vertex {self.vertex!r} is not in the graph"


class VertexExistsError(GraphError):
    """An inserted vertex already exists in the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is already in the graph")
        self.vertex = vertex


class EdgeNotFoundError(GraphError, KeyError):
    """A referenced edge does not exist in the graph."""

    def __init__(self, tail: object, head: object) -> None:
        super().__init__((tail, head))
        self.tail = tail
        self.head = head

    def __str__(self) -> str:
        return f"edge ({self.tail!r} -> {self.head!r}) is not in the graph"


class EdgeExistsError(GraphError):
    """An inserted edge already exists in the graph."""

    def __init__(self, tail: object, head: object) -> None:
        super().__init__(f"edge ({tail!r} -> {head!r}) is already in the graph")
        self.tail = tail
        self.head = head


class NotADagError(GraphError):
    """An operation that requires a DAG received a graph with a cycle."""


class IndexStateError(ReproError):
    """A reachability index was used in a way inconsistent with its state.

    Raised, for example, when querying an index for a vertex it does not
    cover, or when updating an index whose underlying graph has been mutated
    behind its back.
    """


class SerializationError(IndexStateError):
    """A persisted artifact (index, checkpoint, WAL) failed to decode.

    Raised on truncated input, checksum mismatches, bad magic bytes and
    unsupported format versions — instead of letting a bare
    :class:`struct.error` / :class:`KeyError` escape mid-parse.  Derives
    from :class:`IndexStateError` so pre-existing broad handlers keep
    working.
    """


class UnsupportedFormatError(SerializationError):
    """An intact artifact in a format or version this code does not read.

    Unlike corruption, this is not a reason to fall back to an older
    checkpoint: skipping it would silently drop the state it holds.
    """


class UnknownVertexError(IndexStateError, KeyError):
    """A reachability query named a vertex the index has never seen.

    Doubles as :class:`KeyError` so dict-style call sites can treat the
    index like a mapping, and as :class:`IndexStateError` for callers that
    catch index-misuse broadly.
    """

    def __init__(self, vertex: object) -> None:
        super().__init__(vertex)
        self.vertex = vertex

    def __str__(self) -> str:  # KeyError repr-quotes its arg; keep it readable.
        return (
            f"vertex {self.vertex!r} is not indexed; insert it before querying"
        )


class OrderError(ReproError):
    """An order-maintenance structure was used incorrectly."""


class DatasetError(ReproError):
    """A dataset name or configuration is invalid."""


class WorkloadError(ReproError):
    """A benchmark workload specification is invalid."""


class NetworkError(ReproError):
    """Base class for errors raised by the network serving layer."""


class ProtocolError(NetworkError):
    """A wire frame violated the protocol (bad length, garbage JSON,
    unsupported version, malformed request shape)."""


class OverloadedError(NetworkError):
    """The server shed this request under admission control.

    Carries the server's ``retry_after_ms`` hint when it sent one, so a
    client can back off by the amount the server suggested.
    """

    def __init__(self, message: str = "server overloaded",
                 retry_after_ms: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class WriterUnavailableError(NetworkError):
    """The writer process is down; the request needed it.

    Reader workers return this for forwarded operations (updates,
    stats, snapshot-miss queries) while the writer is crashed, stalled
    or restarting.  Queries the shared snapshot can answer keep being
    served in bounded-staleness mode; only writer-owned work fails.
    Transient by construction — the supervisor is respawning the
    writer — so the error carries a ``retry_after_ms`` hint.
    """

    def __init__(self, message: str = "writer process unavailable",
                 retry_after_ms: float = 500.0) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class CircuitOpenError(NetworkError):
    """The client's circuit breaker is open; the call failed fast.

    Raised locally (no bytes hit the wire) after repeated consecutive
    transport failures, until the cooldown elapses.
    """

    def __init__(self, message: str = "circuit breaker open",
                 retry_after_ms: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class DeadlineExceededError(NetworkError):
    """A per-request deadline expired before a reply arrived."""


class SnapshotError(ReproError):
    """Base class for shared-memory snapshot-plane failures."""


class SnapshotUnavailableError(SnapshotError):
    """No usable shared-memory snapshot could be attached.

    Raised after bounded retries when the control block names no
    snapshot yet, the seqlock is stalled (publisher died mid-flip with
    no prior attach to fall back on), or every attach attempt failed
    CRC verification (corrupt segment).  Reader workers fall back to
    forwarding queries to the writer when they see this.
    """
