"""The one serving loop: a blocking frame loop and one dispatcher.

::

    accept ─► connection budget ─► one thread per connection:
              recv ─► frame parse ─► dispatch ─► sendall
                                        │ version check · op routing ·
                                        │ error mapping
                                        ▼
              service handlers (:class:`ReachabilityServer`: single-process
              ``repro serve``, the ``serve-writer`` child) or snapshot
              handlers (the reader workers, :mod:`repro.net.worker`)

Every serving role runs on :class:`FrameServer`; the roles differ only
in the op handlers they register.  A query is one label-set
intersection per pair, and the protocol has no pipelining (a connection
has at most one request in flight), so a connection's thread does
``recv`` → compute → ``sendall`` with no event loop, no queue and no
executor hop.  Threads parked in ``recv`` cost nothing.

Admission control is a **connection budget** (``max_connections``): a
connection accepted while the budget is in use gets a structured
``overloaded`` reply (with a ``retry_after_ms`` hint) to its first
request, is counted in ``net.shed``, and is then closed.  ``0`` means
unbounded.  Admitted connections keep their latency.

Lifecycle: :meth:`FrameServer.serve_forever` installs SIGTERM / SIGINT
handlers that trigger a graceful drain, in this order: stop accepting;
let requests already read finish (bounded by ``drain_timeout``);
``shutdown(SHUT_RDWR)`` the idle connections so their ``recv`` returns.
Every acknowledged update was logged and applied before its reply, so
nothing is left to flush; the serving process closes the WAL after
:meth:`FrameServer.serve_forever` returns.
"""

from __future__ import annotations

import os
import signal
import socket
import struct
import threading
import time
from typing import Optional

from ..errors import ProtocolError, ReproError
from ..obs.trace import new_trace_id
from .protocol import (
    MAX_FRAME_BYTES,
    SUPPORTED_VERSIONS,
    decode_payload,
    decode_update_ops,
    encode_frame,
    error_fields_for,
    error_response,
    ok_response,
    wire_pairs,
)

__all__ = ["FrameServer", "ReachabilityServer", "BackgroundServer"]

#: Backoff hint on an ``overloaded`` reply: a slot frees only when an
#: admitted connection closes, so ask the peer to wait a little.
RETRY_AFTER_MS = 50.0

#: Seconds an over-budget connection may take to send its first request.
_SHED_TIMEOUT = 5.0

#: Per-connection receive chunk — one recv typically drains one frame.
_RECV_CHUNK = 65536

_HEADER = struct.Struct("!I")


def request_trace(request: dict) -> str:
    """The request's trace id, or a fresh one for an untraced peer.

    A v1 client (or a v2 client that opted out) sends none; minting one
    here keeps server-side records — slowlog lines, WAL stamps —
    correlatable.
    """
    trace = request.get("trace")
    if not isinstance(trace, str) or not trace:
        trace = new_trace_id()
    return trace


class FrameServer:
    """Blocking thread-per-connection frame loop plus the one dispatcher.

    Subclasses register their op handlers in :attr:`handlers` — each a
    ``handler(request_id, request) -> reply``.  Everything else —
    framing, the connection budget, version checks, op routing, error
    mapping, metrics under ``net.``, drain — lives here once.

    Parameters
    ----------
    registry:
        The metric registry the ``net.*`` instruments live in.
    host, port:
        Bind address when *sock* is not given; ``port=0`` picks a free
        port (read it back from :attr:`port` after :meth:`start`).
    sock:
        A listening socket to serve instead of binding one (the
        multi-process children inherit theirs from the supervisor).
        An inherited socket is never ``shutdown()``: other processes
        accept on it too.
    max_connections:
        Connection budget; ``0`` means unbounded.
    drain_timeout:
        Seconds the drain waits for requests already read.
    """

    def __init__(
        self,
        registry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        sock: Optional[socket.socket] = None,
        max_connections: int = 1024,
        drain_timeout: float = 10.0,
    ) -> None:
        if max_connections < 0:
            raise ValueError(
                f"max_connections must be >= 0, got {max_connections}"
            )
        self.host = host
        self._requested_port = port
        self._sock = sock
        self._owns_sock = sock is None
        self._started = False
        self.max_connections = max_connections
        self.drain_timeout = drain_timeout
        self.handlers: dict = {}

        self.registry = registry
        self._connections = registry.counter("net.connections")
        self._requests = registry.counter("net.requests")
        self._queries = registry.counter("net.queries")
        self._shed_count = registry.counter("net.shed")
        self._errors = registry.counter("net.errors")
        self._writer_unavailable = registry.counter("net.writer_unavailable")
        self._request_latency = registry.histogram("net.request_latency")

        self._budget = (
            threading.BoundedSemaphore(max_connections)
            if max_connections else None
        )
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        # Connections with a request in flight (set add/discard are
        # atomic, so the per-request path takes no lock).
        self._busy: set[socket.socket] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        """The actually bound port (valid after :meth:`start`)."""
        if self._sock is None:
            return self._requested_port
        return self._sock.getsockname()[1]

    def start(self) -> None:
        """Bind (unless a socket was handed in) and start listening."""
        if self._sock is None:
            self._sock = socket.create_server(
                (self.host, self._requested_port), backlog=512
            )
        # Accept with a timeout: nothing wakes a thread blocked in
        # accept() on an inherited socket (closing it from another
        # thread does not, and a dead supervisor cannot signal), so the
        # loop comes up for air to notice a shutdown request.  Accepted
        # connections are blocking regardless.
        self._sock.settimeout(0.5)
        self._started = True

    def serve_forever(
        self, *, install_signal_handlers: bool = True,
        watch_parent: bool = False,
    ) -> None:
        """Accept connections until :meth:`request_shutdown`, then drain.

        With *install_signal_handlers*, SIGTERM and SIGINT trigger the
        graceful drain (main thread only).  With *watch_parent*, the
        server also shuts down when its parent process disappears — a
        SIGKILLed supervisor cannot signal its children, and an orphan
        would hold the port, the WAL and its shared memory forever.
        """
        if not self._started:
            self.start()
        if install_signal_handlers:
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    signal.signal(sig, lambda *_: self.request_shutdown())
                except ValueError:  # pragma: no cover - non-main thread
                    pass
        if watch_parent:
            self._watch_parent()
        try:
            self._accept_loop()
        finally:
            self._stopping.set()
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
            self._drain()

    def request_shutdown(self) -> None:
        """Thread- and signal-safe shutdown trigger."""
        self._stopping.set()
        if self._owns_sock and self._sock is not None:
            # Wakes a thread blocked in accept() at once (Linux).
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def _watch_parent(self, interval: float = 1.0) -> None:
        parent = os.getppid()

        def watch() -> None:
            while not self._stopping.wait(interval):
                if os.getppid() != parent:
                    self.request_shutdown()
                    return

        threading.Thread(target=watch, name="ppid-watchdog",
                         daemon=True).start()

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _addr = self._sock.accept()
            except TimeoutError:
                continue  # re-check _stopping
            except OSError:
                return  # listening socket shut down or closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            admitted = self._budget is None or self._budget.acquire(
                blocking=False
            )
            if not admitted:
                conn.settimeout(_SHED_TIMEOUT)
            self._connections.incr()
            with self._lock:
                self._conns.add(conn)
            threading.Thread(
                target=self._serve_connection,
                args=(conn, admitted),
                daemon=True,
            ).start()

    def _drain(self) -> None:
        deadline = time.monotonic() + self.drain_timeout
        while self._busy and time.monotonic() < deadline:
            time.sleep(0.01)
        with self._lock:
            idle = list(self._conns)
        for conn in idle:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        deadline = time.monotonic() + 1.0
        while self._conns and time.monotonic() < deadline:
            time.sleep(0.01)

    # ------------------------------------------------------------------
    # The frame loop
    # ------------------------------------------------------------------

    def _serve_connection(self, conn: socket.socket, admitted: bool) -> None:
        handle = self.dispatch if admitted else self._shed
        buf = bytearray()
        unpack_len = _HEADER.unpack_from
        recv = conn.recv
        send = conn.sendall
        busy = self._busy
        try:
            while not self._stopping.is_set():
                # Answer every complete frame already buffered before
                # blocking in recv again.
                while len(buf) >= 4:
                    (length,) = unpack_len(buf)
                    if length > MAX_FRAME_BYTES:
                        raise ProtocolError(
                            f"frame length {length} exceeds max "
                            f"{MAX_FRAME_BYTES}"
                        )
                    end = 4 + length
                    if len(buf) < end:
                        break
                    body = bytes(buf[4:end])
                    del buf[:end]
                    busy.add(conn)
                    try:
                        send(encode_frame(handle(decode_payload(body))))
                    finally:
                        busy.discard(conn)
                    if not admitted:
                        return
                chunk = recv(_RECV_CHUNK)
                if not chunk:
                    return  # clean EOF
                buf += chunk
        except ProtocolError as exc:
            # Unrecoverable framing: best-effort structured reply, then
            # hang up — resync inside a byte stream is not possible.
            self._errors.incr()
            try:
                send(encode_frame(error_response(None, "bad_request",
                                                 str(exc))))
            except OSError:
                pass
        except OSError:
            pass  # peer went away mid-frame, or the drain cut it off
        finally:
            with self._lock:
                self._conns.discard(conn)
            if admitted and self._budget is not None:
                self._budget.release()
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    # The dispatcher
    # ------------------------------------------------------------------

    def dispatch(self, request: dict) -> dict:
        """Answer one request through the role's handlers. Never raises."""
        start = time.perf_counter()
        self._requests.incr()
        request_id = request.get("id")
        try:
            version = request.get("v", SUPPORTED_VERSIONS[-1])
            if version not in SUPPORTED_VERSIONS:
                supported = "/".join(f"v{v}" for v in SUPPORTED_VERSIONS)
                return error_response(
                    request_id,
                    "unsupported_version",
                    f"server speaks {supported}, got v{version!r}",
                )
            op = request.get("op")
            handler = self.handlers.get(op) if isinstance(op, str) else None
            if handler is None:
                return error_response(
                    request_id, "unknown_op", f"unknown op {op!r}"
                )
            return handler(request_id, request)
        except Exception as exc:  # noqa: BLE001 - the wire boundary
            fields = error_fields_for(exc)
            if fields["code"] == "writer_unavailable":
                self._writer_unavailable.incr()
            else:
                self._errors.incr()
            return error_response(request_id, **fields)
        finally:
            self._request_latency.record(time.perf_counter() - start)

    def _shed(self, request: dict) -> dict:
        """The one reply an over-budget connection gets before closing."""
        self._shed_count.incr()
        response = error_response(
            request.get("id"),
            "overloaded",
            f"all {self.max_connections} connection slots are in use",
            retry_after_ms=RETRY_AFTER_MS,
        )
        response["trace"] = request_trace(request)
        return response


class ReachabilityServer(FrameServer):
    """Serve a :class:`ReachabilityService` over length-prefixed JSON TCP.

    The service-backed role: single-process ``repro serve`` and the
    multi-process writer (which has a snapshot publisher attached to its
    service and no budget).  Queries go straight to
    :meth:`~repro.service.server.ReachabilityService.query_batch_with_epoch`
    on the connection's thread; duplicate pairs cost one index probe per
    epoch through the batch dedup and the epoch-stamped cache.

    Parameters
    ----------
    service:
        The (thread-safe, blocking) service to front.
    slowlog:
        A :class:`repro.obs.slowlog.SlowQueryLog` to feed.  When set,
        every query request — admitted, shed, or failed — is offered to
        the log with its trace id and stage breakdown; the log's own
        threshold/sampling decides what is written.

    The remaining keywords are :class:`FrameServer`'s.
    """

    def __init__(self, service, *, slowlog=None, **loop_kwargs) -> None:
        super().__init__(service.registry, **loop_kwargs)
        self.service = service
        self.slowlog = slowlog
        self._updates_applied = self.registry.counter("net.updates_applied")
        self._slowlog_errors = self.registry.counter("net.slowlog_errors")
        self.handlers = {
            "query": self._query,
            "update": self._update,
            "ping": self._ping,
            "stats": self._stats,
            "health": self._health,
        }

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def _query(self, request_id, request: dict) -> dict:
        start = time.perf_counter()
        trace = request_trace(request)
        want_timings = bool(request.get("timings"))
        pairs = wire_pairs(request.get("pairs"))
        if not pairs:
            return ok_response(
                request_id,
                results=[],
                epoch=self.service.epoch,
                degraded=self.service.degraded,
                trace=trace,
            )
        # The stage clocks run when the client asked for a breakdown or
        # a slow-query log wants one.
        timings = {} if want_timings or self.slowlog is not None else None
        try:
            results, epoch, degraded = self.service.query_batch_with_epoch(
                pairs, timings=timings
            )
        except ReproError as exc:
            self._record_slow(trace, start, pairs, outcome="error")
            response = error_response(request_id, **error_fields_for(exc))
            response["trace"] = trace
            return response
        self._queries.incr(len(pairs))
        if timings is not None:
            timings["total_ms"] = _elapsed_ms(start)
            self._record_slow(
                trace, start, pairs, outcome="ok", stages=timings,
                epoch=epoch, degraded=degraded,
            )
        response = ok_response(
            request_id, results=results, epoch=epoch, degraded=degraded,
            trace=trace,
        )
        if want_timings:
            response["timings"] = timings
        return response

    def _update(self, request_id, request: dict) -> dict:
        trace = request_trace(request)
        ops = decode_update_ops(request.get("ops"))
        applied = self.service.apply_batch(ops, trace_id=trace)
        self._updates_applied.incr(applied)
        return ok_response(
            request_id, applied=applied, epoch=self.service.epoch,
            trace=trace,
        )

    def _ping(self, request_id, request: dict) -> dict:
        return ok_response(
            request_id,
            pong=True,
            epoch=self.service.epoch,
            degraded=self.service.degraded,
        )

    def _stats(self, request_id, request: dict) -> dict:
        fields = {"registry": self.service.registry.snapshot()}
        publisher = getattr(self.service, "shm_publisher", None)
        if publisher is not None:
            # Multi-process serving: the per-worker breakdown lives in
            # the shared control block's stats slots.
            section = publisher.health_section()
            fields["workers"] = section["workers"]
            fields["writer_pid"] = section["writer_pid"]
            fields["worker_restarts"] = section["worker_restarts"]
            fields["writer_restarts"] = section["writer_restarts"]
        return ok_response(request_id, **fields)

    def _health(self, request_id, request: dict) -> dict:
        return ok_response(request_id, health=self.service.health())

    def _shed(self, request: dict) -> dict:
        response = super()._shed(request)
        if request.get("op") == "query":
            pairs = request.get("pairs")
            self._record_slow(
                response["trace"], time.perf_counter(),
                pairs if isinstance(pairs, list) else [], outcome="shed",
            )
        return response

    def _record_slow(
        self, trace, start, pairs, *, outcome, stages=None,
        epoch=None, degraded=False,
    ) -> None:
        if self.slowlog is None:
            return
        try:
            self.slowlog.record(
                trace=trace,
                dur_ms=_elapsed_ms(start),
                stages=stages,
                pairs=len(pairs),
                pair=pairs[0] if len(pairs) == 1 else None,
                epoch=epoch,
                outcome=outcome,
                degraded=degraded,
            )
        except OSError:
            self._slowlog_errors.incr()


def _elapsed_ms(start: float) -> float:
    return round((time.perf_counter() - start) * 1e3, 4)


class BackgroundServer:
    """Run a :class:`ReachabilityServer` on a daemon thread.

    For tests, benchmarks and the in-process half of the network-tax
    comparison: ``with BackgroundServer(service) as bs:`` yields a
    listening server whose ``bs.host`` / ``bs.port`` a blocking client
    can connect to, and tears it down (graceful drain included) on exit.
    Keyword arguments go to :class:`ReachabilityServer`.
    """

    def __init__(self, service, **server_kwargs) -> None:
        self.server = ReachabilityServer(service, **server_kwargs)
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def __enter__(self) -> "BackgroundServer":
        self.server.start()
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"install_signal_handlers": False},
            name="reachability-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.server.request_shutdown()
        self._thread.join(timeout=30)
