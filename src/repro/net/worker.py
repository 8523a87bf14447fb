"""Reader-worker process: serve queries from the shared snapshot.

Each worker is a separate process spawned by :mod:`repro.net.multiproc`
with two inherited handles: the already-listening public TCP socket
(all workers share it; the kernel load-balances accepts) and the name of
the shared-memory control block.  The worker runs the same blocking
frame loop and dispatcher as every other serving role
(:class:`~repro.net.server.FrameServer`); only its handlers differ.  It
answers ``query`` and ``ping`` inline from the attached
:class:`~repro.shm.reader.AttachedSnapshot` — the snapshot is immutable,
so a query is just dict lookups and bisects over shared buffers.

On a saturated small host the per-request efficiency of that loop, not
parallelism, is where the multi-process speedup comes from; on a
many-core host the N processes parallelize on top.

Everything the snapshot cannot answer is forwarded verbatim to the
writer process over a private loopback connection and the writer's
reply relayed unchanged (ids and trace ids survive the hop):

* ``update`` — only the writer mutates;
* ``stats`` / ``health`` — the writer owns the service and the
  publisher (the per-worker breakdown lives in the control block);
* queries while the control block's degraded flag is set — the writer
  answers those by BFS over its served graph;
* queries naming vertices the snapshot does not know — the live index
  may have learned them after the snapshot was frozen.

A forward runs in the connection's own thread, so per-connection reply
order is preserved by construction.  A forward whose request reached the
writer is sent again after a broken pipe only when the op is read-only;
an ``update`` is never sent twice (it may already be applied), and the
client gets ``writer_unavailable`` instead.

Writer outage (docs/robustness.md): when the writer process is dead or
restarting, snapshot-answerable queries keep flowing in
**bounded-staleness mode** — replies carry a ``stale_ms`` stamp, and
``--max-staleness`` (seconds; 0 = unbounded) turns answers older than
the bound into ``writer_unavailable`` errors instead.  Forwarded ops
fail fast with a structured ``writer_unavailable`` error carrying a
``retry_after_ms`` hint — the connection survives; the supervisor is
already respawning the writer.  Liveness comes from the writer pid the
control block carries (cleared by the supervisor the moment it reaps a
dead writer), probed at most every 50 ms so the hot path stays
syscall-free.

Replies are stamped with the snapshot's epoch.  Per-connection epoch
monotonicity holds because the worker only ever moves to *newer*
generations and the writer's epoch is ≥ any published one.

A per-snapshot answer memo (cleared on re-attach, size-capped) plays
the role the epoch-LRU cache plays in the single-process service:
under a Zipf-skewed load most pairs repeat, and the memo turns them
into one dict probe.
"""

from __future__ import annotations

import gc
import os
import socket
import threading
import time

from ..errors import NetworkError, SnapshotError, WriterUnavailableError
from ..obs.registry import MetricRegistry
from ..shm.control import (
    SLOT_ATTACH_TS,
    SLOT_EPOCH,
    SLOT_FORWARDED,
    SLOT_GENERATION,
    SLOT_PID,
    SLOT_REQUESTS,
    SLOT_SHED,
)
from ..shm.reader import SnapshotReader
from .client import ReachabilityClient
from .protocol import error_response, ok_response, wire_pairs
from .server import FrameServer, request_trace

__all__ = ["run_reader_worker"]

#: Per-snapshot answer memo bound (entries, i.e. distinct pairs).
MEMO_LIMIT = 200_000

#: Ops the writer link may send twice: replaying them changes nothing.
READ_ONLY_OPS = frozenset({"query", "ping", "stats", "health"})


class _WriterLink:
    """A lazy, lock-serialized pipe to the writer process.

    A :class:`~repro.net.client.ReachabilityClient` relaying frames
    verbatim with one reconnect.  *timeout* bounds each forward: the
    supervisor holds the writer's listening fd, so while the writer is
    dead a connect *succeeds* and the request then sits in the backlog —
    only a deadline gets the calling thread back.  A forward whose
    request reached the writer is sent again only for
    :data:`READ_ONLY_OPS`: the writer may have applied an update before
    the pipe broke (a slow apply past the timeout, a crash after logging
    the batch), so replaying it could apply it twice.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 5.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._client: ReachabilityClient | None = None
        self._lock = threading.Lock()

    def forward(self, request: dict) -> dict:
        with self._lock:
            if self._client is None:
                self._client = ReachabilityClient(
                    self.host, self.port, timeout=self.timeout, retries=1,
                    backoff=0.0, breaker_threshold=0,
                )
            return self._client.relay(
                request, idempotent=request.get("op") in READ_ONLY_OPS
            )

    def close(self) -> None:
        with self._lock:
            if self._client is not None:
                self._client.close()


class _ReaderWorker(FrameServer):
    def __init__(
        self,
        *,
        listen_fd: int,
        control_name: str,
        writer_host: str,
        writer_port: int,
        worker_id: int,
        max_staleness: float = 0.0,
        forward_timeout: float = 5.0,
        max_connections: int = 0,
    ) -> None:
        super().__init__(
            MetricRegistry(),
            sock=socket.socket(fileno=listen_fd),
            max_connections=max_connections,
        )
        self.worker_id = worker_id
        self.max_staleness = max_staleness
        self.reader = SnapshotReader(control_name)
        self.link = _WriterLink(writer_host, writer_port,
                                timeout=forward_timeout)
        self.slot = self.reader.control.worker_cells(worker_id)
        self.slot[SLOT_PID] = os.getpid()
        self._memo: dict = {}
        self._memo_generation = -1
        self._attach_lock = threading.Lock()
        self._requests_seen = 0
        self._forwarded = self.registry.counter("net.forwarded")
        self._staleness_refused = self.registry.counter(
            "net.staleness_refused"
        )
        # Cached writer-liveness probe (a signal-0 syscall): refreshed
        # at most every 50 ms so the per-request hot path stays free of
        # it while outage detection stays prompt.
        self._writer_alive_cached = True
        self._writer_checked = 0.0
        self.handlers = {
            "query": self._query,
            "ping": self._ping,
            # Writer-owned ops.
            "update": self._forward,
            "stats": self._forward,
            "health": self._forward,
        }

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    def _snapshot(self):
        snap = self.reader.current()
        if snap.generation != self._memo_generation:
            # Connection threads race here on a republish; the lock only
            # serializes the (rare) re-attach bookkeeping, never queries.
            with self._attach_lock:
                if snap.generation != self._memo_generation:
                    self._memo = {}
                    self._memo_generation = snap.generation
                    self.slot[SLOT_GENERATION] = snap.generation
                    self.slot[SLOT_EPOCH] = snap.epoch
                    self.slot[SLOT_ATTACH_TS] = snap.attached_at_ns
        return snap

    def _writer_alive(self) -> bool:
        now = time.monotonic()
        if now - self._writer_checked >= 0.05:
            self._writer_checked = now
            self._writer_alive_cached = self.reader.control.writer_alive()
        return self._writer_alive_cached

    def dispatch(self, request: dict) -> dict:
        self._requests_seen += 1
        self.slot[SLOT_REQUESTS] = self._requests_seen
        return super().dispatch(request)

    def _shed(self, request: dict) -> dict:
        response = super()._shed(request)
        self.slot[SLOT_SHED] = self._shed_count.value
        return response

    def _ping(self, request_id, request: dict) -> dict:
        try:
            epoch = self._snapshot().epoch
        except SnapshotError:
            epoch = 0
        return ok_response(
            request_id,
            pong=True,
            epoch=epoch,
            degraded=self.reader.degraded,
            worker=self.worker_id,
        )

    def _query(self, request_id, request: dict) -> dict:
        response = self._fast_query(request_id, request)
        if response is None:
            response = self._forward(request_id, request)
        return response

    def _fast_query(self, request_id, request: dict):
        """Snapshot-plane answer, or ``None`` when the writer must."""
        if self.reader.degraded:
            # The index is rebuilding; BFS over the writer's graph is
            # the only correct answer source.
            return None
        start = time.perf_counter() if request.get("timings") else 0.0
        pairs = wire_pairs(request.get("pairs"))
        try:
            snap = self._snapshot()
        except SnapshotError:
            # No attachable snapshot (corrupt segment, stalled seqlock,
            # nothing published) and nothing held to stale-serve: the
            # writer's live index is the fallback plane.
            return None
        trace = request_trace(request)
        memo = self._memo
        comp_of = snap.component_of
        frozen_query = snap.frozen.query
        results = []
        append = results.append
        try:
            for pair in pairs:
                r = memo.get(pair)
                if r is None:
                    s, t = pair
                    cs = comp_of[s]
                    ct = comp_of[t]
                    r = cs == ct or frozen_query(cs, ct)
                    if len(memo) < MEMO_LIMIT:
                        memo[pair] = r
                append(r)
        except (KeyError, TypeError):
            # A vertex the snapshot has never heard of (or an unhashable
            # one): the live index may know better — let the writer
            # answer the whole request.
            return None
        response = ok_response(
            request_id, results=results, epoch=snap.epoch, degraded=False,
            trace=trace,
        )
        if not self._writer_alive():
            # Bounded-staleness mode: the snapshot cannot advance while
            # the writer is down, so stamp how old the answers are, and
            # refuse them entirely past the operator's bound.
            stale_ms = snap.age_ms()
            if (
                self.max_staleness > 0
                and stale_ms > self.max_staleness * 1000.0
            ):
                self._staleness_refused.incr()
                return error_response(
                    request_id,
                    "writer_unavailable",
                    f"snapshot is {stale_ms:.0f}ms stale, past the "
                    f"{self.max_staleness}s bound, and the writer is down",
                    retry_after_ms=500.0,
                )
            response["stale_ms"] = round(stale_ms, 1)
        if start:
            elapsed_ms = round((time.perf_counter() - start) * 1e3, 4)
            response["timings"] = {
                "probe_ms": elapsed_ms,
                "total_ms": elapsed_ms,
                "worker": self.worker_id,
                "generation": snap.generation,
            }
        return response

    def _forward(self, request_id, request: dict) -> dict:
        if not self.reader.control.writer_alive():
            # Uncached probe: forwards are rare and the fast-fail must
            # not lag recovery.  The supervisor zeroes the pid the
            # moment it reaps a dead writer; the respawned writer
            # re-registers before it starts accepting.
            raise WriterUnavailableError(
                "writer process is down; the supervisor is respawning it"
            )
        self._forwarded.incr()
        self.slot[SLOT_FORWARDED] = self._forwarded.value
        try:
            return self.link.forward(request)
        except (OSError, NetworkError) as exc:
            # The writer died mid-conversation or is wedged past the
            # timeout, and the request may not (or need not) be resent.
            raise WriterUnavailableError(
                f"writer connection failed ({type(exc).__name__}: {exc})"
            ) from exc

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------

    def run(self) -> int:
        # Attach eagerly so the first request doesn't pay the attach and
        # the parent's health report shows the worker immediately.  A
        # worker respawned mid-outage may find nothing attachable yet;
        # it still serves (forwarding, attach-on-demand).
        try:
            self._snapshot()
        except SnapshotError:
            pass
        # The worker's long-lived heap is immutable (code, the attached
        # snapshot, the memo's tuples/bools); per-request garbage is
        # acyclic and dies by refcount.  Freeze the baseline out of the
        # young generations and make collections rare so the cyclic GC
        # stops scanning the request path.
        gc.collect()
        gc.freeze()
        gc.set_threshold(100_000, 50, 50)
        try:
            self.serve_forever(watch_parent=True)
        finally:
            self.link.close()
            self.slot.release()
            self.reader.close()
        return 0


def run_reader_worker(
    *,
    listen_fd: int,
    control_name: str,
    writer_host: str,
    writer_port: int,
    worker_id: int,
    max_staleness: float = 0.0,
    forward_timeout: float = 5.0,
    max_connections: int = 0,
) -> int:
    """Entry point for the hidden ``repro serve-worker`` subcommand."""
    worker = _ReaderWorker(
        listen_fd=listen_fd,
        control_name=control_name,
        writer_host=writer_host,
        writer_port=writer_port,
        worker_id=worker_id,
        max_staleness=max_staleness,
        forward_timeout=forward_timeout,
        max_connections=max_connections,
    )
    return worker.run()
