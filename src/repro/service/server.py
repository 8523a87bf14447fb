"""`ReachabilityService` — concurrent serving facade over the index.

Lock discipline
---------------

One :class:`~repro.service.concurrency.RWLock` guards the index (a
waiting writer holds back new readers; the readers waiting when a write
ends go before the next one):

* **Queries** take the read lock, read the epoch, consult the cache and
  (on a miss) the index, all inside one read-locked section — so the
  answer, the epoch stamp and the cache entry are mutually consistent.
  :meth:`ReachabilityService.query_batch` answers a whole deduplicated
  batch under a single acquisition.
* **Updates** arrive as batches: :meth:`ReachabilityService.apply_batch`
  (one op for :meth:`~ReachabilityService.apply`) validates the whole
  batch, WAL-logs it, and applies it inside one write-locked critical
  section, with the epoch bumped once per *successful* mutation.
* A separate writer mutex serializes batches, so two threads calling
  :meth:`~ReachabilityService.apply_batch` concurrently cannot
  interleave their ops.

Because cached answers are epoch-stamped and every write bumps the epoch,
a query can never return an answer computed against a different graph
version than the one it reports — the invariant the stress test
(``tests/service/test_concurrency.py``) checks against a BFS oracle.

Robustness (see ``docs/robustness.md``)
---------------------------------------

The served graph has one copy, the
:class:`~repro.graph.digraph.DiGraph` the index keeps
(``index.condensation.graph``): written before any TOL kernel runs and
by none of them, it stays right when a kernel stops halfway.  Each op
runs under a small ``_graph_lock`` (inside the write lock, with the
epoch bump, so the graph and the epoch move together):

* **one failure rule** — a :class:`~repro.errors.ReproError` that left
  the graph's version unchanged rejects the op, as WAL replay skips its
  record; any other exception from the kernel enters degraded mode,
  lands the rest of the batch on the graph only, and rebuilds the index
  from it before the batch returns;
* **degraded mode** — when :attr:`degraded` is set (a kernel failure, a
  failed self-audit, or an operator call), queries are answered by
  bidirectional BFS over the graph: slower but correct by Definition 1,
  and blocked by at most the op in flight;
* **checkpoints and self-audit** — checkpoints write the graph, and the
  sampled Definition-1 audit compares index answers against it.

Durability is optional: pass a
:class:`~repro.service.durability.DurabilityManager` and every
batch is appended to its write-ahead log (and synced, per its fsync
policy) *before* any op touches the graph or the index, with periodic
checkpoints covering the WAL prefix.  A failed append rolls the log back
to where the batch began and fails the whole request with nothing
applied.  :meth:`ReachabilityService.recover` rebuilds a service from
that directory after a crash.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Hashable, Iterable
from pathlib import Path
from random import Random
from typing import Optional, Union

from ..core.index import ReachabilityIndex
from ..core.ops import UpdateOp
from ..core.orders import resolve_order_strategy
from ..errors import ReproError, UnknownVertexError
from ..graph.digraph import DiGraph
from ..graph.traversal import bidirectional_reachable
from ..obs import trace as obs_trace
from ..obs.flight import FlightRecorder
from ..obs.health import collect_health
from ..obs.registry import MetricRegistry
from .cache import MISS, EpochLRUCache
from .concurrency import EpochCounter, RWLock
from .durability import DurabilityManager, RecoveryReport, recover_state
from .faults import NULL_INJECTOR, FaultInjector

__all__ = ["ReachabilityService"]

Vertex = Hashable
Pair = tuple[Vertex, Vertex]


class ReachabilityService:
    """Thread-safe reachability serving over a dynamic graph.

    Parameters
    ----------
    graph:
        Starting graph (cycles allowed); an internal
        :class:`~repro.core.index.ReachabilityIndex` is built over a copy.
        Pass ``index=`` instead to adopt a prebuilt one.
    index:
        A ready :class:`ReachabilityIndex` to serve.  The service becomes
        its owner: mutating it (or its graph) from outside afterwards
        breaks the epoch bookkeeping.
    order:
        Level-order strategy (a name or callable, as for
        :class:`~repro.core.index.ReachabilityIndex`) used to build the
        internal index and every :meth:`rebuild_index`.  Resolved here,
        so a bad value fails at construction even when ``index=`` is
        passed.
    cache_size:
        Capacity of the query-result LRU (0 disables caching).
    registry:
        A :class:`~repro.obs.registry.MetricRegistry` to record into
        (default: a fresh private one).  The service registers its
        counters/histograms under ``service.*``, the cache's live stats
        under ``cache.*``, and index-size gauges under ``index.*``.
        Point :func:`repro.obs.trace.enable` at the same registry
        (:attr:`registry`) and one snapshot additionally carries the
        core-algorithm spans — cache hit-rate through label churn.
    durability:
        A :class:`~repro.service.durability.DurabilityManager`; when set,
        every batch is WAL-logged before it is applied and
        checkpoints are taken per the manager's cadence.
    injector:
        Fault injector whose named crash points the apply loop fires
        (default: the shared no-op injector).
    flight:
        A :class:`~repro.obs.flight.FlightRecorder` to dump on
        degraded-mode entry and recovery.

    Examples
    --------
    >>> g = DiGraph(edges=[("a", "b"), ("b", "c")])
    >>> service = ReachabilityService(g)
    >>> service.query("a", "c")
    True
    >>> service.apply(UpdateOp.delete_vertex("b"))
    >>> service.query("a", "c")
    False
    >>> service.epoch
    1
    """

    def __init__(
        self,
        graph: Optional[DiGraph] = None,
        *,
        index: Optional[ReachabilityIndex] = None,
        cache_size: int = 4096,
        order: Union[str, object] = "butterfly-u",
        registry: Optional[MetricRegistry] = None,
        durability: Optional[DurabilityManager] = None,
        injector: FaultInjector = NULL_INJECTOR,
        flight: Optional["FlightRecorder"] = None,
    ) -> None:
        if index is not None and graph is not None:
            raise ValueError("pass either graph or index, not both")
        # Resolved once: rebuild_index reuses the strategy, so a bad
        # value cannot surface later inside a degraded-mode rebuild.
        self._order = resolve_order_strategy(order)
        self._index = (
            index
            if index is not None
            else ReachabilityIndex(graph, order=self._order)
        )
        self._rwlock = RWLock()
        self._epoch = EpochCounter()
        self._cache = EpochLRUCache(cache_size)
        self._write_mutex = threading.Lock()
        reg = self._registry = (
            registry if registry is not None else MetricRegistry()
        )
        self._cache.bind_registry(reg)
        # Every instrument is bound once, here, so the hot paths touch
        # the instrument itself and `repro metrics` lists each one (at 0)
        # before anything happens.
        self._queries = reg.counter("service.queries")
        self._batch_calls = reg.counter("service.batch_calls")
        self._batch_dedup_saved = reg.counter("service.batch_dedup_saved")
        self._updates_applied = reg.counter("service.updates_applied")
        self._updates_rejected = reg.counter("service.updates_rejected")
        self._reductions = reg.counter("service.reductions")
        self._audits = reg.counter("service.audits")
        self._audit_failures = reg.counter("service.audit_failures")
        self._rebuilds = reg.counter("service.rebuilds")
        self._degraded_queries = reg.counter("degraded.queries")
        self._replayed_records = reg.counter("recovery.replayed_records")
        self._wal_sync_errors = reg.counter("wal.sync_errors")
        self._checkpoint_errors = reg.counter("checkpoint.errors")
        #: Per-query-batch service time (cache hits and misses alike).
        self._query_latency = reg.histogram("service.query_latency")
        #: Wall time of one write-lock critical section (whole batch).
        self._batch_apply_latency = reg.histogram(
            "service.batch_apply_latency"
        )
        #: Ops per applied batch.
        self._batch_size = reg.stats("service.batch_size")

        # Robustness state: graph lock, degraded flag, fault injection.
        self._graph_lock = threading.Lock()
        self._degraded = threading.Event()
        self._injector = injector
        self._durability = durability
        self._last_recovery: Optional[RecoveryReport] = None
        # Post-mortem flight recorder (see repro.obs.flight): when wired,
        # the service auto-dumps its timeline on degraded-mode entry and
        # recovery.
        self._flight = flight

        if durability is not None:
            durability.bind_registry(reg)
            # A fresh durability directory under a non-empty starting
            # graph needs a baseline checkpoint: the WAL only carries
            # *updates*, so without one, recovery would replay onto an
            # empty graph and silently lose the base state.
            if (
                durability.wal.last_seq == 0
                and durability.checkpointed_seq == 0
                and not durability.checkpoints.paths()
                and self._graph.num_vertices
            ):
                durability.checkpoint(self._graph, {"wal_seq": 0, "epoch": 0})
        # The WAL owns its counters; show them (at 0) without one too.
        reg.counter("wal.records_appended")
        reg.counter("wal.fsyncs")
        reg.register_callback(
            "service.degraded", lambda: int(self._degraded.is_set())
        )
        reg.register_callback("service.epoch", lambda: self._epoch.value)
        # Gauge callbacks run inside registry.snapshot(), i.e. on the
        # metrics-scrape path — they must never park behind a stuck or
        # long-running writer (scraping is how you *notice* a stuck
        # writer).  The vertex count reads the graph unlocked; the label
        # count try-locks and falls back to the last value it read.
        self._size_gauge = self._index.size()
        reg.register_callback("index.size", self._gauge_size)
        reg.register_callback(
            "index.num_vertices", lambda: self._index.num_vertices
        )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        directory,
        *,
        fsync: str = "batch",
        checkpoint_every: int = 256,
        keep_checkpoints: int = 2,
        injector: FaultInjector = NULL_INJECTOR,
        **service_kwargs,
    ) -> "ReachabilityService":
        """Rebuild a service from a durability directory after a crash.

        Loads the newest valid checkpoint, replays the WAL suffix onto
        it (:func:`~repro.service.durability.recover_state`), rebuilds
        the index from the recovered graph, and returns a service wired
        to the same directory so logging continues where it left off.
        The report is kept on :attr:`last_recovery`, and the number of
        replayed records lands in the ``recovery.replayed_records``
        counter.
        """
        report = recover_state(directory, fsync=fsync, injector=injector)
        durability = DurabilityManager(
            directory,
            fsync=fsync,
            checkpoint_every=checkpoint_every,
            keep_checkpoints=keep_checkpoints,
            injector=injector,
        )
        service = cls(
            report.graph,
            durability=durability,
            injector=injector,
            **service_kwargs,
        )
        service._last_recovery = report
        service._replayed_records.incr(report.replayed)
        if service._flight is not None:
            service._flight.auto_dump(
                "recovery",
                replayed=report.replayed,
                skipped=report.skipped,
            )
        return service

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def query(self, s: Vertex, t: Vertex) -> bool:
        """Answer ``s -> t`` against the current index version."""
        return self.query_with_epoch(s, t)[0]

    def query_with_epoch(self, s: Vertex, t: Vertex) -> tuple[bool, int]:
        """Answer ``s -> t`` and report the epoch the answer is valid at.

        A one-pair :meth:`query_batch_with_epoch`: the epoch is read
        under the same read-lock hold that computes (or fetches) the
        answer, so the pair is consistent even while a writer is
        waiting; in degraded mode the answer comes from BFS over the
        graph instead, with the same consistency.
        """
        answers, epoch, _ = self.query_batch_with_epoch(((s, t),))
        return answers[0], epoch

    def query_many(self, pairs: Iterable[Pair]) -> list[bool]:
        """Answer a batch of queries, in input order.

        :class:`~repro.core.protocols.ReachabilityQuerier` spelling of
        :meth:`query_batch` (same single-acquisition, deduplicated path).
        """
        return self.query_batch(pairs)

    def witness(self, s: Vertex, t: Vertex) -> Optional[Vertex]:
        """Return one vertex on some ``s ⇝ t`` path, or ``None``.

        Witnesses are not cached (they are not epoch-stamped booleans);
        the lookup runs against the index under the read lock.  In
        degraded mode it runs BFS over the graph instead and answers
        ``s``, which lies on every ``s ⇝ t`` path.
        """
        if self._degraded.is_set():
            with self._graph_lock:
                if bidirectional_reachable(self._graph, s, t):
                    return s
                return None
        with self._rwlock.read_locked():
            return self._index.witness(s, t)

    def __contains__(self, v: Vertex) -> bool:
        if self._degraded.is_set():
            with self._graph_lock:
                return self._graph.has_vertex(v)
        with self._rwlock.read_locked():
            return v in self._index

    def query_batch(self, pairs: Iterable[Pair]) -> list[bool]:
        """Answer many queries under one read-lock acquisition.

        Duplicate pairs are answered once; results come back in input
        order.  This is the high-throughput entry point: one lock
        round-trip and one epoch read for the whole batch.  Degraded
        mode falls back to BFS over the graph, one graph-lock hold for
        the whole batch.
        """
        return self.query_batch_with_epoch(pairs)[0]

    def query_batch_with_epoch(
        self, pairs: Iterable[Pair], *, timings: Optional[dict] = None
    ) -> tuple[list[bool], int, bool]:
        """:meth:`query_batch` plus the consistency metadata.

        Returns ``(answers, epoch, degraded)``: the answers in input
        order, the epoch they are valid at, and whether they came from
        the degraded graph-BFS path instead of the index.  The network
        front end uses this to stamp every reply envelope.

        The pairs the cache misses go to the index in one
        ``query_many`` call.  A batch naming an unknown vertex raises
        :class:`~repro.errors.VertexNotFoundError` and caches nothing.

        When *timings* is a dict, the call also fills it in place with
        the stage breakdown the tracing tier reports per reply:
        ``lock_ms`` (read-lock wait), ``probe_ms`` (cache + index time),
        ``cache_hits`` / ``cache_misses``, and ``degraded``.  The extra
        work is one clock read per batch; per pair, the timed and the
        default call do the same work (the disabled-path overhead
        budget in benchmarks/bench_obs_overhead.py depends on that).
        """
        pairs = list(pairs)
        unique: dict[Pair, bool] = dict.fromkeys(pairs)  # insertion-ordered
        start = time.perf_counter()
        degraded = self._degraded.is_set()
        if not degraded:
            self._rwlock.acquire_read()
        if timings is not None:
            lock_done = time.perf_counter()
        hits = 0
        if degraded:
            with self._graph_lock:
                epoch = self._epoch.value
                graph = self._graph
                for pair in unique:
                    unique[pair] = bidirectional_reachable(
                        graph, pair[0], pair[1]
                    )
            self._degraded_queries.incr(len(pairs))
        else:
            try:
                epoch = self._epoch.value
                cache = self._cache
                misses = []
                for pair in unique:
                    answer = cache.get(pair, epoch)
                    if answer is MISS:
                        misses.append(pair)
                    else:
                        hits += 1
                        unique[pair] = answer
                if misses:
                    answers = self._index.query_many(misses)
                    for pair, answer in zip(misses, answers):
                        cache.put(pair, epoch, answer)
                        unique[pair] = answer
            finally:
                self._rwlock.release_read()
        end = time.perf_counter()
        if timings is not None:
            timings["lock_ms"] = round((lock_done - start) * 1e3, 4)
            timings["probe_ms"] = round((end - lock_done) * 1e3, 4)
            timings["cache_hits"] = hits
            timings["cache_misses"] = 0 if degraded else len(unique) - hits
            timings["degraded"] = degraded
        self._query_latency.record(end - start)
        self._queries.incr(len(pairs))
        self._batch_calls.incr()
        self._batch_dedup_saved.incr(len(pairs) - len(unique))
        return [unique[pair] for pair in pairs], epoch, degraded

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def apply(self, op: UpdateOp, *, trace_id: Optional[str] = None) -> None:
        """Apply one :class:`~repro.core.ops.UpdateOp` (a one-op batch).

        The named convenience methods (:meth:`insert_vertex` …) all
        construct an :class:`UpdateOp` and route through here.  Passing
        anything other than an :class:`UpdateOp` — raw tuples or wire
        dicts — is not supported.
        """
        self.apply_batch((op,), trace_id=trace_id)

    def apply_batch(
        self, ops: Iterable[UpdateOp], *, trace_id: Optional[str] = None
    ) -> int:
        """Validate, log and apply *ops* as one batch; return ops applied.

        The service's one write path, under the writer mutex:

        1. validate every op's references against the graph plus the
           earlier ops of the same batch — on a dangling reference raise
           :class:`~repro.errors.UnknownVertexError` before anything is
           logged or applied, so a rejected batch has no effect;
        2. WAL-log every op (when durability is configured) and sync
           once; an append that raises :class:`OSError` rolls the log
           back to where the batch began and re-raises, so the request
           fails with nothing applied;
        3. under the write lock, apply each op to the index: one whose
           kernel raises :class:`ReproError` with the graph's version
           unchanged (e.g. inserting a vertex that already exists) is
           rejected, counted in ``updates_rejected``, exactly as
           recovery skips its WAL record; otherwise the epoch is bumped;
        4. maybe checkpoint.

        Any other exception from an index kernel means it may have
        stopped halfway: the service enters degraded mode (reason
        ``kernel_failure``, readers answer from the graph), puts the
        failed op (unless the graph already holds it) and the rest of
        the batch on the graph only, and rebuilds the index from the
        graph before it releases the write lock and returns.
        *trace_id* tags the batch: it is stamped on every WAL record and
        carried by the ``kernel_failure`` event and flight dump.

        The return value counts only the ops that took effect, so it
        always equals the epoch delta of the batch.
        """
        batch = list(ops)
        if not batch:
            return 0
        with self._write_mutex:
            self._validate_refs(batch)
            if self._durability is not None:
                self._log_batch(batch, trace_id)
            applied = 0
            index_ok = True
            start = time.perf_counter()
            with self._rwlock.write_locked():
                graph = self._graph
                for op in batch:
                    with self._graph_lock:
                        if index_ok:
                            landed, index_ok = self._apply_to_index(
                                op, graph, trace_id
                            )
                        else:
                            landed = self._apply_to_graph(op, graph)
                        if not landed:
                            continue
                        self._epoch.bump()
                    applied += 1
                if not index_ok:
                    self._index = self._rebuild_from_graph()
                    self.exit_degraded()
            elapsed = time.perf_counter() - start
            if self._durability is not None and applied:
                self._maybe_checkpoint()
        self._batch_apply_latency.record(elapsed)
        self._batch_size.record(len(batch))
        self._updates_applied.incr(applied)
        return applied

    def _apply_to_index(
        self, op: UpdateOp, graph: DiGraph, trace_id: Optional[str]
    ) -> tuple[bool, bool]:
        """Run *op*'s kernel; return ``(on the graph, index still trusted)``."""
        version = graph.version
        try:
            self._injector.fire("service.apply")
            op.apply(self._index)
        except Exception as exc:  # noqa: BLE001 - any kernel failure
            unmoved = graph.version == version
            if isinstance(exc, ReproError) and unmoved:
                self._updates_rejected.incr()
                return False, True
            self._trip_degraded(
                "kernel_failure", trace=trace_id, kind=op.kind, error=repr(exc)
            )
            return (not unmoved or self._apply_to_graph(op, graph)), False
        return True, True

    def _apply_to_graph(self, op: UpdateOp, graph: DiGraph) -> bool:
        """Put *op* on the graph alone; ``False`` (counted) if it is rejected."""
        try:
            op.apply_to_graph(graph)
        except ReproError:
            self._updates_rejected.incr()
            return False
        return True

    def _validate_refs(self, batch: list[UpdateOp]) -> None:
        """Raise :class:`UnknownVertexError` for a dangling reference.

        The membership view is the graph (all applied ops) adjusted by
        the earlier ops of *batch* in order, so an ``insert_vertex``
        earlier in the batch satisfies later references and a
        ``delete_vertex`` invalidates them.  Called under the writer
        mutex, so no op moves the graph meanwhile.
        """
        added: set[Vertex] = set()
        removed: set[Vertex] = set()
        graph = self._graph
        for op in batch:
            for v in op.referenced_vertices():
                if v in removed or (v not in added and not graph.has_vertex(v)):
                    raise UnknownVertexError(v)
            if op.kind == "insert_vertex":
                added.add(op.vertex)
                removed.discard(op.vertex)
            elif op.kind == "delete_vertex":
                removed.add(op.vertex)
                added.discard(op.vertex)

    def insert_vertex(
        self,
        v: Vertex,
        in_neighbors: Iterable[Vertex] = (),
        out_neighbors: Iterable[Vertex] = (),
    ) -> None:
        """Insert a vertex (convenience for :meth:`apply`)."""
        self.apply(UpdateOp.insert_vertex(v, in_neighbors, out_neighbors))

    def delete_vertex(self, v: Vertex) -> None:
        """Delete a vertex."""
        self.apply(UpdateOp.delete_vertex(v))

    def insert_edge(self, tail: Vertex, head: Vertex) -> None:
        """Insert an edge."""
        self.apply(UpdateOp.insert_edge(tail, head))

    def delete_edge(self, tail: Vertex, head: Vertex) -> None:
        """Delete an edge."""
        self.apply(UpdateOp.delete_edge(tail, head))

    def _log_batch(self, batch: list[UpdateOp], trace_id: Optional[str]) -> None:
        """WAL-append every op of the batch, then sync once.

        An append that raises :class:`OSError` rolls the log back to
        where the batch began and re-raises: the log never holds part of
        a request the service reported as failed.  Each record is
        stamped with the batch's trace id (when it has one), so WAL
        replay events after a crash name the batch that wrote them.
        """
        wal = self._durability.wal
        mark = wal.tell()
        try:
            for op in batch:
                wal.append(op, trace=trace_id)
        except OSError:
            wal.rollback(mark)
            raise
        try:
            wal.sync()
        except OSError:
            # Records are flushed (process-crash durable) but not synced;
            # keep serving rather than losing the batch.
            self._wal_sync_errors.incr()

    def _maybe_checkpoint(self) -> None:
        """Checkpoint the graph if one is due; called under the writer mutex."""
        if not self._durability.checkpoint_due:
            return
        try:
            self._write_checkpoint()
        except OSError:
            self._checkpoint_errors.incr()

    def checkpoint(self) -> Path:
        """Force a checkpoint covering the current WAL position."""
        if self._durability is None:
            raise ValueError("service has no durability manager")
        with self._write_mutex:
            return self._write_checkpoint()

    def _write_checkpoint(self) -> Path:
        """Write the graph itself: the caller holds the writer mutex, so
        no op moves it before the synchronous write returns."""
        meta = {
            "wal_seq": self._durability.wal.last_seq,
            "epoch": self._epoch.value,
        }
        return self._durability.checkpoint(self._graph, meta)

    def reduce_labels(self, *, max_rounds: int = 1):
        """Run Section-6 label reduction.

        The reduction rewrites labels in place, so it runs under the
        write lock and bumps the epoch like any other mutation.
        """
        with self._write_mutex, self._rwlock.write_locked():
            report = self._index.reduce_labels(max_rounds=max_rounds)
            with self._graph_lock:
                self._epoch.bump()
            self._reductions.incr()
        return report

    # ------------------------------------------------------------------
    # Degraded mode, audit, rebuild
    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """Whether queries are currently served by BFS over the graph."""
        return self._degraded.is_set()

    def enter_degraded(self) -> None:
        """Answer queries by BFS over the graph until :meth:`exit_degraded`.

        Operators (and :meth:`self_audit`, and a failed update kernel)
        flip this when the index is suspect; readers keep getting
        correct answers, just without the index speedup.
        """
        self._trip_degraded("operator")

    def exit_degraded(self) -> None:
        """Resume serving from the index."""
        if self._degraded.is_set():
            self._degraded.clear()
            self._epoch.signal()

    def _trip_degraded(self, reason: str, **attrs) -> None:
        """Enter degraded mode; on the edge, dump the flight recorder.

        The dump captures the metric timeline *leading up to* the
        transition — the whole point of the ring buffer — so it fires
        only on the clear→set edge, not on repeated entries.  *attrs*
        (a kernel failure's trace id, op kind and error) ride on the
        event and the dump's marker.
        """
        already = self._degraded.is_set()
        self._degraded.set()
        if not already:
            self._epoch.signal()
            obs_trace.event("service.degraded_enter", reason=reason, **attrs)
            if self._flight is not None:
                self._flight.auto_dump("degraded", reason=reason, **attrs)

    def self_audit(self, samples: int = 16, *, seed: int = 0) -> bool:
        """Sampled Definition-1 audit: does the index agree with BFS?

        Draws vertex pairs from the graph and compares the index's
        answer with bidirectional BFS over the graph — the definition
        the index is supposed to encode.  Any disagreement flips the
        service into degraded mode (readers instantly fall back to the
        correct path) and returns ``False``; call :meth:`rebuild_index`
        to repair and resume.  Runs under the writer mutex so no writer
        moves the state between the two reads.
        """
        rng = Random(seed)
        with self._write_mutex:
            graph = self._graph
            vertices = list(graph.vertices())
            if len(vertices) < 2:
                self._audits.incr()
                return True
            for _ in range(samples):
                s = rng.choice(vertices)
                t = rng.choice(vertices)
                with self._rwlock.read_locked():
                    try:
                        got = self._index.query(s, t)
                    except ReproError:
                        got = None
                try:
                    want = bidirectional_reachable(graph, s, t)
                except ReproError:
                    want = None
                if got != want:
                    self._trip_degraded("audit_failure")
                    self._audit_failures.incr()
                    return False
        self._audits.incr()
        return True

    def rebuild_index(self) -> int:
        """Rebuild the index from the graph and leave degraded mode.

        The rebuild happens off the write lock (readers keep going —
        degraded readers on the graph, healthy ones on the old index);
        only the final swap takes it, and bumps the epoch so no answer
        cached from the old index survives.  Returns the post-swap epoch.
        """
        with self._write_mutex:
            new_index = self._rebuild_from_graph()
            with self._rwlock.write_locked():
                self._index = new_index
                with self._graph_lock:
                    epoch = self._epoch.bump()
            self.exit_degraded()
        return epoch

    def _rebuild_from_graph(self) -> ReachabilityIndex:
        """A fresh index over the graph (counted as a rebuild); the writer
        mutex holds the graph still while the constructor copies it."""
        index = ReachabilityIndex(self._graph, order=self._order)
        self._rebuilds.incr()
        return index

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def _graph(self) -> DiGraph:
        """The served graph: the one the index keeps (``condensation.graph``)."""
        return self._index.condensation.graph

    @property
    def epoch(self) -> int:
        """Current index version (number of successful mutations)."""
        return self._epoch.value

    def wait_changed(self, seen: int, timeout: Optional[float] = None) -> int:
        """Block until the epoch moves or the degraded flag flips.

        *seen* is the change count a previous call returned; with any
        other value (``-1`` to start) the call returns at once.  Gives up
        after *timeout* seconds.  Returns the current change count.  The
        shared-memory publisher waits here instead of polling on a timer.
        """
        return self._epoch.wait_changed(seen, timeout)

    def wake_waiters(self) -> None:
        """Wake every :meth:`wait_changed` caller (e.g. to shut it down)."""
        self._epoch.signal()

    @property
    def registry(self) -> MetricRegistry:
        """The metric registry everything records into.

        Hand this to :func:`repro.obs.trace.enable` to route core spans
        into the same snapshot, or to
        :func:`repro.obs.export.render_prometheus` to scrape it.
        """
        return self._registry

    @property
    def cache(self) -> EpochLRUCache:
        """The query-result cache (shared; treat as read-only)."""
        return self._cache

    @property
    def durability(self) -> Optional[DurabilityManager]:
        """The durability manager, when crash safety is configured."""
        return self._durability

    @property
    def last_recovery(self) -> Optional[RecoveryReport]:
        """The report from :meth:`recover`, when this service came from one."""
        return self._last_recovery

    @property
    def num_vertices(self) -> int:
        """Vertex count of the served graph (consistent read)."""
        with self._rwlock.read_locked():
            return self._index.num_vertices

    @property
    def num_edges(self) -> int:
        """Edge count of the served graph (consistent read)."""
        with self._rwlock.read_locked():
            return self._index.num_edges

    def size(self) -> int:
        """Label count ``|L|`` of the underlying index (consistent read)."""
        with self._rwlock.read_locked():
            return self._index.size()

    def freeze_snapshot(self):
        """Consistent ``(frozen, component_of, epoch)`` triple for publishing.

        Taken under the read lock so the frozen index, the component map
        and the epoch describe the same instant; the shared-memory
        publisher (:class:`repro.shm.publisher.SnapshotPublisher`) packs
        this triple into an immutable segment for reader processes.  The
        frozen index carries no DAG edges: readers only answer queries.
        """
        from ..core.frozen import freeze

        with self._rwlock.read_locked():
            epoch = self._epoch.value
            frozen = freeze(self._index.tol, edges=False)
            component_of = dict(self._index.condensation.component_of)
        return frozen, component_of, epoch

    def size_bytes(self) -> int:
        """Label payload bytes of the underlying index (consistent read)."""
        with self._rwlock.read_locked():
            return self._index.size_bytes()

    def _gauge_size(self) -> int:
        if self._rwlock.acquire_read(timeout=0.05):
            try:
                self._size_gauge = self._index.size()
            finally:
                self._rwlock.release_read()
        return self._size_gauge

    def health(self) -> dict:
        """Live index-health payload (:func:`repro.obs.health.collect_health`).

        Label-size distribution, order-quality score, scratch high-water
        marks, WAL lag, checkpoint age — the ``health`` wire op and the
        ``repro health`` CLI both serve exactly this dict.
        """
        return collect_health(self)

    @property
    def flight(self) -> Optional[FlightRecorder]:
        """The wired flight recorder, when post-mortem capture is on."""
        return self._flight

    # ------------------------------------------------------------------
    # Context manager: close the durability manager on exit
    # ------------------------------------------------------------------

    def __enter__(self) -> "ReachabilityService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._durability is not None:
            self._durability.close()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(epoch={self.epoch}, "
            f"degraded={self.degraded}, "
            f"cache={self._cache!r})"
        )
