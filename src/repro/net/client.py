"""A blocking client for the :mod:`repro.net` wire protocol.

Deliberately synchronous: the consumers are scripts, tests and the
load-generator worker *processes* — none of which want an event loop.
One socket, serial request/response, structured errors re-raised as the
library's own exception types (:class:`~repro.errors.UnknownVertexError`,
:class:`~repro.errors.SerializationError`,
:class:`~repro.errors.OverloadedError`, ...), so calling over the wire
feels like calling :class:`~repro.service.server.ReachabilityService`
in-process — just with an ``epoch``/``degraded`` stamp on every batch
reply.

Since the failover rework the client is also the resilience boundary:

* **reconnect-on-reset** — a server restart used to surface as a raw
  ``ConnectionResetError``/``BrokenPipeError``; now the client dials a
  fresh socket and retries, so a supervised respawn is invisible to
  idempotent callers;
* **bounded retries with jittered backoff** — transport failures only;
  structured server errors (``overloaded``, ``writer_unavailable``,
  ``unknown_vertex``, ...) are the caller's to handle and are never
  retried here;
* **per-request deadlines** — ``deadline=`` caps the whole attempt
  loop (connect + send + recv + backoff), raising
  :class:`~repro.errors.DeadlineExceededError` when the budget runs
  out;
* **a circuit breaker** — after ``breaker_threshold`` *consecutive*
  transport failures the client fails fast with
  :class:`~repro.errors.CircuitOpenError` for ``breaker_reset``
  seconds instead of hammering a dead endpoint.

Updates are the one non-idempotent op: they are retried **only when
the send itself failed** (no byte of the request reached the kernel's
send buffer), because a reply lost after a successful send could mean
the batch was applied — retrying would double-apply it.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass
from typing import Optional

from ..core.ops import UpdateOp
from ..errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ProtocolError,
)
from ..obs.trace import new_trace_id
from .protocol import (
    PROTOCOL_VERSION,
    encode_update_ops,
    raise_for_error,
    recv_frame_file,
    send_frame_sync,
)

__all__ = ["BatchReply", "ReachabilityClient"]


@dataclass(frozen=True)
class BatchReply:
    """A query-batch answer plus its consistency metadata.

    ``results`` are booleans in request order; ``epoch`` is the index
    version they are valid at; ``degraded`` says the server answered
    by BFS over its graph rather than from the index.  ``trace`` is the request
    trace id the server saw (the one this client minted, or one minted
    at admission for v1-style requests); ``timings`` is the per-stage
    breakdown when the call opted in with ``timings=True``, else
    ``None``.  ``stale_ms`` is set (milliseconds) when a multi-process
    reader answered from its last snapshot while the writer was down —
    the bounded-staleness contract made visible.
    """

    results: list[bool]
    epoch: int
    degraded: bool
    trace: Optional[str] = None
    timings: Optional[dict] = None
    stale_ms: Optional[float] = None

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)


class _Attempt(Exception):
    """Internal: one transport attempt failed; carries whether the
    request had already been (at least partially) sent."""

    def __init__(self, cause: BaseException, *, sent: bool) -> None:
        super().__init__(str(cause))
        self.cause = cause
        self.sent = sent


class ReachabilityClient:
    """Blocking TCP client speaking protocol v2 (trace-aware).

    Usable as a context manager; not thread-safe (one socket, serial
    framing) — give each thread or process its own client.  Every query
    and update request carries a compact trace id (minted here unless
    the caller supplies one), which the server echoes on the reply and
    stamps on its own records — slow-query-log lines, WAL records,
    kernel-failure events — so one id follows the request across
    process boundaries.

    Resilience knobs (see the module docstring for semantics):

    ``retries``
        Extra transport attempts per request after the first
        (default 2; 0 restores the old fail-on-first-reset behaviour).
    ``backoff`` / ``backoff_max``
        Base and cap of the jittered exponential backoff between
        attempts, in seconds.
    ``breaker_threshold`` / ``breaker_reset``
        Consecutive transport failures that open the circuit, and how
        long it stays open.  ``breaker_threshold=0`` disables the
        breaker.

    Examples
    --------
    ::

        with ReachabilityClient("127.0.0.1", 7421) as client:
            client.query("a", "b")            # bool
            reply = client.query_many([("a", "b"), ("b", "a")])
            reply.results, reply.epoch, reply.degraded
            timed = client.query_many([("a", "b")], timings=True)
            timed.trace, timed.timings["lock_ms"]
            client.query_many([("a", "b")], deadline=0.25)
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: Optional[float] = 30.0,
        retries: int = 2,
        backoff: float = 0.05,
        backoff_max: float = 1.0,
        breaker_threshold: int = 5,
        breaker_reset: float = 5.0,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_max = backoff_max
        self.breaker_threshold = breaker_threshold
        self.breaker_reset = breaker_reset
        self._rng = random.Random()
        self._next_id = 0
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._breaker_failures = 0
        self._breaker_open_until = 0.0
        #: Local resilience counters (inspected by the load generator's
        #: availability report and by tests).
        self.resilience = {
            "reconnects": 0,
            "retries": 0,
            "breaker_opens": 0,
        }
        # Eager connect: constructing a client against a dead endpoint
        # should fail here, not on the first call (tests and scripts
        # use this as the "is the server up yet?" probe).
        self._connect(self._deadline_from(None))

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def query(self, s, t, *, deadline: Optional[float] = None) -> bool:
        """Answer one reachability query ``s -> t``."""
        return self.query_many([(s, t)], deadline=deadline).results[0]

    def query_many(
        self,
        pairs,
        *,
        timings: bool = False,
        trace: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> BatchReply:
        """Answer a batch of ``(source, target)`` pairs in one frame.

        *timings=True* asks the server for the stage breakdown
        (lock wait, probe time, cache hits/misses) on :attr:`BatchReply.timings`.  *trace* propagates
        an existing trace id instead of minting a fresh one — pass it
        when this query is part of a larger traced operation.
        *deadline* caps the whole call (all transport attempts and
        backoff) at that many seconds.
        """
        request = {
            "op": "query",
            "pairs": [[s, t] for s, t in pairs],
            "trace": trace or new_trace_id(),
        }
        if timings:
            request["timings"] = True
        payload = self._call(request, deadline=deadline)
        return BatchReply(
            results=list(payload["results"]),
            epoch=payload["epoch"],
            degraded=payload.get("degraded", False),
            trace=payload.get("trace"),
            timings=payload.get("timings"),
            stale_ms=payload.get("stale_ms"),
        )

    def apply(
        self, op: UpdateOp, *, trace: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> int:
        """Apply one :class:`~repro.core.ops.UpdateOp`; return ops applied."""
        return self.apply_batch([op], trace=trace, deadline=deadline)

    def apply_batch(
        self, ops, *, trace: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> int:
        """Apply :class:`~repro.core.ops.UpdateOp` values in one frame;
        return the number applied (the batch's epoch delta).

        This is the unified update entry point, mirroring
        :meth:`ReachabilityService.apply_batch` server-side; anything
        but :class:`UpdateOp` values raises :class:`TypeError`.  The
        batch's trace id (minted here unless *trace* is given) ends up
        on every WAL record the batch produces.

        Updates are **not** idempotent: the client retries only when
        the send itself failed, never after a reply went missing (the
        server may have applied the batch).
        """
        ops = encode_update_ops(ops)
        return self._call(
            {"op": "update", "ops": ops, "trace": trace or new_trace_id()},
            deadline=deadline,
            idempotent=False,
        )["applied"]

    def insert_vertex(self, v, in_neighbors=(), out_neighbors=()) -> int:
        """Convenience single-op update (routes through :meth:`apply`)."""
        return self.apply(UpdateOp.insert_vertex(v, in_neighbors, out_neighbors))

    def delete_vertex(self, v) -> int:
        """Convenience single-op update."""
        return self.apply(UpdateOp.delete_vertex(v))

    def insert_edge(self, tail, head) -> int:
        """Convenience single-op update."""
        return self.apply(UpdateOp.insert_edge(tail, head))

    def delete_edge(self, tail, head) -> int:
        """Convenience single-op update."""
        return self.apply(UpdateOp.delete_edge(tail, head))

    def ping(self, *, deadline: Optional[float] = None) -> dict:
        """Round-trip liveness probe; returns the pong envelope."""
        return self._call({"op": "ping"}, deadline=deadline)

    def stats(self) -> dict:
        """The server's metric-registry snapshot.

        Everything :meth:`MetricRegistry.snapshot` reports — counters
        (``service.*``, ``net.*``, ``wal.*``, ...), gauges (cache, index
        size, and the ``health.*`` gauges when bound), histogram and
        stats summaries — as plain JSON.  ``repro metrics --connect``
        renders this.
        """
        return self._call({"op": "stats"})["registry"]

    def health(self) -> dict:
        """The server's live index-health payload.

        Label-size distribution, order-quality score, scratch high-water
        marks, WAL lag, checkpoint age (see
        :func:`repro.obs.health.collect_health`).
        """
        return self._call({"op": "health"})["health"]

    # ------------------------------------------------------------------
    # Transport plumbing
    # ------------------------------------------------------------------

    def _deadline_from(self, deadline: Optional[float]) -> Optional[float]:
        """Absolute monotonic deadline for one request, or ``None``."""
        budget = deadline if deadline is not None else self.timeout
        if budget is None:
            return None
        return time.monotonic() + budget

    def _remaining(self, until: Optional[float]) -> Optional[float]:
        if until is None:
            return None
        left = until - time.monotonic()
        if left <= 0:
            raise DeadlineExceededError(
                f"request deadline exceeded talking to "
                f"{self.host}:{self.port}"
            )
        return left

    def _connect(self, until: Optional[float]) -> None:
        """(Re)dial the server; replaces any existing socket."""
        self._drop_socket()
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self._remaining(until)
        )
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Buffered read side: one recv typically yields a whole reply
        # frame (header + body), where raw recv pays two syscalls.
        self._rfile = self._sock.makefile("rb")

    def _drop_socket(self) -> None:
        for closer in (self._rfile, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._rfile = None
        self._sock = None

    def _check_breaker(self) -> None:
        if self.breaker_threshold <= 0:
            return
        now = time.monotonic()
        if now < self._breaker_open_until:
            raise CircuitOpenError(
                f"circuit breaker open for {self.host}:{self.port} "
                f"after {self._breaker_failures} consecutive transport "
                "failures",
                retry_after_ms=(self._breaker_open_until - now) * 1e3,
            )

    def _record_transport_failure(self) -> None:
        self._breaker_failures += 1
        if (
            self.breaker_threshold > 0
            and self._breaker_failures >= self.breaker_threshold
        ):
            self._breaker_open_until = time.monotonic() + self.breaker_reset
            self.resilience["breaker_opens"] += 1

    def _attempt(self, request: dict, until: Optional[float]) -> dict:
        """One send/recv round; raises :class:`_Attempt` on transport
        failure with ``sent`` recording whether bytes left this process."""
        if self._sock is None:
            try:
                self._connect(until)
            except OSError as exc:
                raise _Attempt(exc, sent=False) from exc
            self.resilience["reconnects"] += 1
        sent = False
        try:
            self._sock.settimeout(self._remaining(until))
            send_frame_sync(self._sock, request)
            sent = True
            response = recv_frame_file(self._rfile)
        except (OSError, EOFError) as exc:
            # TimeoutError is an OSError: a timed-out socket is also a
            # *corrupt* one (the reply may still arrive later), so every
            # transport failure drops the connection.
            raise _Attempt(exc, sent=sent) from exc
        except ProtocolError as exc:
            # A ProtocolError out of the recv path (mid-frame cut,
            # undecodable body) means the stream is hosed — transport
            # failure, not a server verdict.
            raise _Attempt(exc, sent=sent) from exc
        if response is None:
            raise _Attempt(
                ProtocolError("server closed the connection mid-request"),
                sent=True,
            )
        return response

    def relay(self, request: dict, *, idempotent: bool) -> dict:
        """Send *request* as is; return the raw reply, error replies included.

        The reader worker's pipe to the writer: ids and trace ids survive
        the hop, and the retry rule is :meth:`_call`'s — a request whose
        bytes reached the server is sent again only when *idempotent*.
        """
        return self._exchange(lambda: request, None, idempotent)

    def _call(
        self,
        fields: dict,
        *,
        deadline: Optional[float] = None,
        idempotent: bool = True,
    ) -> dict:
        def build() -> dict:
            self._next_id += 1
            request = {"v": PROTOCOL_VERSION, "id": self._next_id}
            request.update(fields)
            return request

        response = self._exchange(build, deadline, idempotent)
        if response.get("id") not in (None, self._next_id):
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {self._next_id}"
            )
        if not response.get("ok"):
            # Structured server errors are never retried here: the
            # server is alive and said no (overloaded, unknown
            # vertex, writer_unavailable...) — policy belongs to
            # the caller.
            error = response.get("error", {})
            if error.get("code") == "overloaded":
                # The server closes a connection it shed; the next
                # call dials afresh instead of failing on it.
                self._drop_socket()
            raise_for_error(error)
        return response

    def _exchange(
        self, build, deadline: Optional[float], idempotent: bool
    ) -> dict:
        """Send ``build()`` until a reply parses (within the retry rules)."""
        self._check_breaker()
        until = self._deadline_from(deadline)
        attempt = 0
        while True:
            try:
                response = self._attempt(build(), until)
            except _Attempt as failure:
                self._drop_socket()
                self._record_transport_failure()
                if isinstance(failure.cause, DeadlineExceededError):
                    raise failure.cause
                # Non-idempotent requests whose bytes reached the wire
                # must not be replayed: the server may have applied them.
                retryable = idempotent or not failure.sent
                if not retryable or attempt >= self.retries:
                    raise self._transport_error(failure.cause)
                attempt += 1
                self.resilience["retries"] += 1
                self._sleep_backoff(attempt, until)
                continue
            # A parsed reply — transport is healthy again.
            self._breaker_failures = 0
            self._breaker_open_until = 0.0
            return response

    def _sleep_backoff(self, attempt: int, until: Optional[float]) -> None:
        delay = min(self.backoff * (2 ** (attempt - 1)), self.backoff_max)
        delay *= 0.5 + self._rng.random() * 0.5  # full-jitter halves
        if until is not None:
            delay = min(delay, max(0.0, self._remaining(until)))
        if delay > 0:
            time.sleep(delay)

    @staticmethod
    def _transport_error(cause: BaseException) -> BaseException:
        if isinstance(cause, TimeoutError):
            return DeadlineExceededError(f"request timed out: {cause}")
        if isinstance(cause, ProtocolError):
            return cause
        return ProtocolError(
            f"transport failure: {type(cause).__name__}: {cause}"
        )

    def close(self) -> None:
        """Close the socket (idempotent)."""
        self._drop_socket()

    def __enter__(self) -> "ReachabilityClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.host!r}, {self.port})"
