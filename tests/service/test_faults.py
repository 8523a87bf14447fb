"""Fault injection, quarantine, and degraded-mode serving.

Crash/recovery correctness lives in ``test_recovery.py``; this module
covers the live-process half of the robustness story: the
:class:`FaultInjector` contract itself, the retry/quarantine policy
(a poison update must never wedge the service), deadline-triggered and
audit-triggered degraded serving, and index repair via
:meth:`ReachabilityService.rebuild_index`.
"""

import threading

import pytest

from repro.baselines.search import BFSBaseline
from repro.core.index import ReachabilityIndex
from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.service.faults import (
    CRASH_POINTS,
    NULL_INJECTOR,
    FaultInjector,
    FaultPolicy,
    InjectedCrash,
)
from repro.service.server import ReachabilityService
from repro.core.ops import UpdateOp


def diamond() -> DiGraph:
    return DiGraph(edges=[("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


class TestFaultInjector:
    def test_unarmed_points_are_free(self):
        injector = FaultInjector()
        for point in CRASH_POINTS:
            injector.fire(point)  # no-op when nothing armed
        # Hits are still counted — that's what makes `after=` usable.
        assert injector.hits("wal.sync") == 1

    def test_crash_raises_injected_crash_with_point(self):
        injector = FaultInjector()
        injector.arm("service.apply")
        with pytest.raises(InjectedCrash) as info:
            injector.fire("service.apply")
        assert info.value.point == "service.apply"

    def test_injected_crash_is_not_an_exception(self):
        # `except Exception` (the quarantine boundary) must not swallow
        # a simulated crash, or the crash matrix tests nothing.
        assert not issubclass(InjectedCrash, Exception)
        assert issubclass(InjectedCrash, BaseException)

    def test_after_counts_hits(self):
        injector = FaultInjector()
        injector.arm("wal.sync", after=3)
        injector.fire("wal.sync")
        injector.fire("wal.sync")
        with pytest.raises(InjectedCrash):
            injector.fire("wal.sync")
        assert injector.hits("wal.sync") == 3

    def test_times_bounds_firings(self):
        injector = FaultInjector()
        injector.arm("wal.sync", "ioerror", times=2)
        for _ in range(2):
            with pytest.raises(OSError):
                injector.fire("wal.sync")
        injector.fire("wal.sync")  # budget spent: free again

    def test_times_zero_means_forever(self):
        injector = FaultInjector()
        injector.arm("wal.sync", "ioerror", times=0)
        for _ in range(5):
            with pytest.raises(OSError):
                injector.fire("wal.sync")

    def test_unknown_point_rejected(self):
        injector = FaultInjector()
        with pytest.raises(ValueError):
            injector.arm("wal.append.sideways")

    def test_unknown_action_rejected(self):
        injector = FaultInjector()
        with pytest.raises(ValueError):
            injector.arm("wal.sync", "explode")

    def test_null_injector_cannot_be_armed(self):
        with pytest.raises(ValueError):
            NULL_INJECTOR.arm("wal.sync")

    def test_reset_disarms_and_clears_counts(self):
        injector = FaultInjector()
        injector.arm("wal.sync", after=10)
        injector.fire("wal.sync")
        injector.reset()
        assert injector.hits("wal.sync") == 0
        injector.fire("wal.sync")  # disarmed


class TestFaultPolicy:
    def test_defaults_valid(self):
        policy = FaultPolicy()
        assert policy.max_retries >= 1
        assert policy.max_quarantined > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            FaultPolicy(max_quarantined=0)
        with pytest.raises(ValueError):
            FaultPolicy(backoff_base=-0.5)


class TestQuarantine:
    def poisoned_service(self, *, times):
        injector = FaultInjector()
        policy = FaultPolicy(max_retries=2, backoff_base=0.0001)
        service = ReachabilityService(
            diamond(), injector=injector, fault_policy=policy
        )
        # Poison exactly the next apply attempt(s): the next op applied
        # eats every armed firing, exhausting its retry budget.
        injector.arm("service.apply", "ioerror", times=times)
        return service, injector, policy

    def test_poison_update_is_quarantined_not_applied(self):
        service, _, policy = self.poisoned_service(
            times=FaultPolicy().max_retries + 1
        )
        service.insert_vertex("e", in_neighbors=["d"])
        assert service.epoch == 0  # never took effect
        assert len(service.quarantined) == 1
        bad = service.quarantined[0]
        assert bad.op == UpdateOp.insert_vertex("e", in_neighbors=["d"])
        assert bad.attempts == policy.max_retries + 1
        assert "OSError" in bad.error  # stored as repr, not live object
        counters = service.registry.snapshot()["counters"]
        assert counters["updates.quarantined"] == 1

    def test_always_failing_update_never_blocks_the_service(self):
        # Acceptance criterion: a poison op must not wedge subsequent
        # updates or readers.
        service, injector, _ = self.poisoned_service(times=3)
        service.insert_vertex("poison")
        assert len(service.quarantined) == 1
        # Readers unaffected, immediately.
        assert service.query("a", "d") is True
        assert not service.degraded
        # Writers unaffected: the very next update applies normally.
        service.insert_vertex("e", in_neighbors=["d"])
        assert service.epoch == 1
        assert service.query("a", "e") is True

    def test_transient_failure_is_retried_to_success(self):
        service, injector, _ = self.poisoned_service(times=1)
        service.insert_vertex("e", in_neighbors=["d"])  # fails once, retried
        assert service.epoch == 1
        assert service.query("a", "e") is True
        assert len(service.quarantined) == 0

    def test_quarantine_mid_batch_spares_the_rest(self):
        injector = FaultInjector()
        policy = FaultPolicy(max_retries=1, backoff_base=0.0001)
        service = ReachabilityService(
            diamond(), injector=injector, fault_policy=policy
        )
        # Poison whichever op is applied second, for all its attempts.
        injector.arm("service.apply", "ioerror", after=2, times=policy.max_retries + 1)
        service.apply_batch([
            UpdateOp.insert_vertex("e"),
            UpdateOp.insert_vertex("f"),
            UpdateOp.insert_vertex("g"),
        ])
        assert len(service.quarantined) == 1
        assert service.epoch == 2  # the other two ops landed
        applied = {v for v in ("e", "f", "g") if v in service}
        assert len(applied) == 2

    def test_quarantine_is_bounded(self):
        injector = FaultInjector()
        policy = FaultPolicy(
            max_retries=0, backoff_base=0.0, max_quarantined=2
        )
        service = ReachabilityService(
            diamond(), injector=injector, fault_policy=policy
        )
        injector.arm("service.apply", "ioerror", times=0)
        for i in range(5):
            service.insert_vertex(f"v{i}")
        assert len(service.quarantined) == 2  # deque bounded, newest kept
        assert service.quarantined[-1].op == UpdateOp.insert_vertex("v4")


class TestDegradedMode:
    def test_manual_degraded_answers_from_mirror(self):
        service = ReachabilityService(diamond())
        service.enter_degraded()
        assert service.degraded
        assert service.query("a", "d") is True
        assert service.query("d", "a") is False
        counters = service.registry.snapshot()["counters"]
        assert counters["degraded.queries"] == 2
        service.exit_degraded()
        assert not service.degraded

    def test_degraded_matches_bfs_on_random_graph(self):
        graph = random_dag(30, 80, seed=3)
        service = ReachabilityService(graph)
        oracle = BFSBaseline(graph)
        service.enter_degraded()
        vertices = list(graph.vertices())[:8]
        for s in vertices:
            for t in vertices:
                assert service.query(s, t) == oracle.query(s, t), (s, t)

    def test_degraded_batch_and_contains(self):
        service = ReachabilityService(diamond())
        service.enter_degraded()
        assert service.query_batch([("a", "d"), ("d", "a")]) == [True, False]
        assert "a" in service
        assert "ghost" not in service

    def test_degraded_tracks_writes(self):
        # Updates keep flowing while readers are on the BFS path, and
        # the mirror they read reflects them immediately.
        service = ReachabilityService(diamond())
        service.enter_degraded()
        service.insert_vertex("e", in_neighbors=["d"])
        assert service.query("a", "e") is True
        service.delete_vertex("e")
        assert "e" not in service

    def test_deadline_expiry_falls_back_to_mirror(self):
        service = ReachabilityService(diamond(), query_deadline=0.05)
        service._rwlock.acquire_write()  # a stuck writer
        try:
            # Not flagged degraded, but the read lock is unobtainable:
            # the deadline routes the query to the mirror.
            assert service.query("a", "d") is True
            counters = service.registry.snapshot()["counters"]
            assert counters["degraded.queries"] == 1
        finally:
            service._rwlock.release_write()
        # Lock free again: back on the indexed path.
        assert service.query("d", "a") is False
        counters = service.registry.snapshot()["counters"]
        assert counters["degraded.queries"] == 1

    def test_metrics_scrape_survives_stuck_writer(self):
        # Scraping is how you *notice* a stuck writer, so the gauge
        # callbacks must not park behind the write lock themselves.
        service = ReachabilityService(diamond())
        service.registry.snapshot()  # warm the size-gauge cache
        service._rwlock.acquire_write()
        try:
            gauges = service.registry.snapshot()["gauges"]
            assert gauges["index.num_vertices"] == 4
            assert gauges["index.size"] >= 0
        finally:
            service._rwlock.release_write()

    def test_degraded_gauge_exported(self):
        service = ReachabilityService(diamond())
        assert service.registry.snapshot()["gauges"]["service.degraded"] == 0
        service.enter_degraded()
        assert service.registry.snapshot()["gauges"]["service.degraded"] == 1


class TestSelfAuditAndRebuild:
    def chain_service(self):
        return ReachabilityService(DiGraph(edges=[("a", "b"), ("b", "c")]))

    def test_healthy_index_passes(self):
        service = self.chain_service()
        assert service.self_audit(50) is True
        assert not service.degraded

    def test_corrupt_index_detected_and_degraded(self):
        service = self.chain_service()
        # Sabotage the index behind the service's back: the mirror still
        # has a->b, so Definition 1 is violated for (a, b) and (a, c).
        UpdateOp.delete_edge("a", "b").apply(service._index)
        assert service.self_audit(100) is False
        assert service.degraded
        counters = service.registry.snapshot()["counters"]
        assert counters["service.audit_failures"] == 1
        # Degraded readers get the *correct* answer meanwhile.
        assert service.query("a", "c") is True

    def test_rebuild_repairs_and_exits_degraded(self):
        service = self.chain_service()
        UpdateOp.delete_edge("a", "b").apply(service._index)
        service.self_audit(100)
        assert service.degraded
        epoch_before = service.epoch
        service.rebuild_index()
        assert not service.degraded
        assert service.epoch == epoch_before + 1
        assert service.query("a", "c") is True  # indexed path again
        assert service.self_audit(100) is True

    def test_bad_order_rejected_at_construction(self):
        # The order is resolved once, up front, even when a prebuilt
        # index is adopted: a bad value must not survive until a
        # degraded-mode rebuild_index() and strand the service there.
        index = ReachabilityIndex(DiGraph(edges=[("a", "b")]))
        with pytest.raises(GraphError, match="no-such-order"):
            ReachabilityService(index=index, order="no-such-order")
        with pytest.raises(GraphError, match="no-such-order"):
            ReachabilityService(DiGraph(), order="no-such-order")

    def test_audit_interval_runs_automatically(self):
        service = ReachabilityService(
            diamond(), audit_interval=2, audit_samples=8
        )
        service.insert_vertex("e")
        service.insert_vertex("f")  # second flush triggers the audit
        counters = service.registry.snapshot()["counters"]
        assert counters["service.audits"] >= 1

    def test_audit_concurrent_with_readers(self):
        # The audit takes the flush mutex, not the read lock exclusively:
        # readers must keep flowing while it runs.
        graph = random_dag(40, 100, seed=6)
        service = ReachabilityService(graph)
        errors = []
        stop = threading.Event()

        def reader():
            vertices = list(graph.vertices())
            try:
                while not stop.is_set():
                    s, t = vertices[0], vertices[-1]
                    service.query(s, t)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(5):
                assert service.self_audit(16) is True
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert not errors
