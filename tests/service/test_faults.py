"""Fault injection, the write path's failure rule, and degraded serving.

Crash/recovery correctness lives in ``test_recovery.py``; this module
covers the live-process half of the robustness story: the
:class:`FaultInjector` contract itself, the one failure rule of
:meth:`ReachabilityService.apply_batch` (a kernel that rejects an op
before the graph moved changed nothing; any other kernel failure, even
one that stopped halfway, lands its ops through a rebuild from the
graph the index keeps; a failed WAL append fails the whole request),
audit-triggered degraded serving, and index repair via
:meth:`ReachabilityService.rebuild_index`.
"""

import threading

import pytest

from repro.baselines.search import BFSBaseline
from repro.core.index import ReachabilityIndex
from repro.errors import GraphError, IndexStateError, VertexNotFoundError
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.graph.traversal import forward_reachable
from repro.core import deletion, insertion
from repro.service.durability import DurabilityManager
from repro.service.faults import (
    CRASH_POINTS,
    NULL_INJECTOR,
    FaultInjector,
    InjectedCrash,
)
from repro.service import server
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
        # `except Exception` (the kernel-failure handler) must not swallow
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


def all_pairs(graph: DiGraph) -> list:
    vertices = sorted(graph.vertices(), key=repr)
    return [(s, t) for s in vertices for t in vertices]


def bfs_answers(graph: DiGraph, pairs) -> list:
    """Definition 1 by BFS: one forward search per source vertex."""
    reach = {
        s: forward_reachable(graph, s, include_source=True)
        for s in {s for s, _ in pairs}
    }
    return [t in reach[s] for s, t in pairs]


def hub(graph: DiGraph):
    """The highest-degree vertex (ties broken by vertex order)."""
    return max(sorted(graph.vertices()), key=graph.degree)


def served_graph(service: ReachabilityService) -> DiGraph:
    """The graph the service serves: the one its index keeps."""
    return service._index.condensation.graph


def corrupt_labels(service: ReachabilityService) -> None:
    """Empty every label behind the service's back; the graph keeps its edges."""
    labeling = service._index.tol.labeling
    for vid in range(labeling.interner.capacity):
        labeling.clear_in_ids(vid)
        labeling.clear_out_ids(vid)


def fail_once(
    monkeypatch, module, name: str, *, on_call: int = 1, error=OSError
) -> dict:
    """Make ``module.name`` raise *error* on its *on_call*-th call.

    Patched on the module, so the kernel fails from inside (after it has
    started rewriting labels), not before it runs.
    """
    original = getattr(module, name)
    state = {"calls": 0}

    def flaky(*args, **kwargs):
        state["calls"] += 1
        if state["calls"] == on_call:
            raise error(f"injected failure in {name}")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, flaky)
    return state


def park_inside(monkeypatch, module, name: str):
    """Make the first call of ``module.name`` wait until released.

    Returns ``(entered, release)`` events: *entered* is set once the
    caller is parked inside, and setting *release* lets it go on.
    """
    original = getattr(module, name)
    entered, release = threading.Event(), threading.Event()

    def parked(*args, **kwargs):
        if not entered.is_set():
            entered.set()
            assert release.wait(10)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, parked)
    return entered, release


class TestKernelFailure:
    """An op the graph accepts always lands; a failed kernel rebuilds."""

    def poisoned_service(self, *, times, after=1):
        injector = FaultInjector()
        service = ReachabilityService(diamond(), injector=injector)
        # `service.apply` fires right before the kernel runs: an injected
        # OSError there is a failed kernel that left the graph unmoved,
        # so the op goes to the graph directly.
        injector.arm("service.apply", "ioerror", after=after, times=times)
        return service, injector

    def test_poisoned_update_lands_through_a_rebuild(self):
        service, _ = self.poisoned_service(times=1)
        assert service.apply_batch(
            [UpdateOp.insert_vertex("e", in_neighbors=["d"])]
        ) == 1
        assert service.epoch == 1
        assert service.query("a", "e") is True  # rebuilt index has it
        assert not service.degraded
        counters = service.registry.snapshot()["counters"]
        assert counters["service.rebuilds"] == 1
        assert counters["service.updates_applied"] == 1
        assert counters["service.updates_rejected"] == 0

    def test_always_failing_kernel_never_blocks_the_service(self):
        # A kernel that fails on every op must not wedge later updates
        # or readers: each batch lands through one rebuild.
        service, _ = self.poisoned_service(times=0)
        service.insert_vertex("poison")
        assert service.query("a", "d") is True
        assert not service.degraded
        service.insert_vertex("e", in_neighbors=["d"])
        assert service.epoch == 2
        assert service.query("a", "e") is True
        assert "poison" in service
        counters = service.registry.snapshot()["counters"]
        assert counters["service.rebuilds"] == 2

    def test_transient_failure_lands_through_one_rebuild(self):
        service, _ = self.poisoned_service(times=1)
        service.insert_vertex("e", in_neighbors=["d"])  # kernel fails once
        service.insert_vertex("f", in_neighbors=["e"])  # kernel runs
        assert service.epoch == 2
        assert service.query("a", "f") is True
        counters = service.registry.snapshot()["counters"]
        assert counters["service.rebuilds"] == 1

    def test_mid_batch_failure_lands_every_op(self):
        # The second op's kernel fails: it and the third op go to the
        # graph only, and one rebuild brings the index up to date.
        service, injector = self.poisoned_service(times=1, after=2)
        applied = service.apply_batch([
            UpdateOp.insert_vertex("e"),
            UpdateOp.insert_vertex("f"),
            UpdateOp.insert_vertex("g"),
        ])
        assert applied == 3
        assert service.epoch == 3
        assert all(v in service for v in ("e", "f", "g"))
        assert injector.hits("service.apply") == 2  # op 3 skipped the kernel
        counters = service.registry.snapshot()["counters"]
        assert counters["service.rebuilds"] == 1

    def test_kernel_rejection_is_not_a_kernel_failure(self):
        # The kernel raises a ReproError before the graph moved: the op
        # changed nothing, so it is rejected and nothing is rebuilt.
        service = ReachabilityService(diamond())
        assert service.apply_batch([
            UpdateOp.insert_vertex("a"),
            UpdateOp.insert_edge("a", "b"),
            UpdateOp.delete_edge("d", "a"),
        ]) == 0
        assert service.epoch == 0
        assert not service.degraded
        assert served_graph(service) == diamond()
        counters = service.registry.snapshot()["counters"]
        assert counters["service.updates_rejected"] == 3
        assert counters["service.rebuilds"] == 0

    def test_graph_rejects_an_op_whose_kernel_failed_unmoved(self):
        # An injected failure before the kernel leaves the graph unmoved;
        # the graph then rejects the op, which counts as rejected.
        service, _ = self.poisoned_service(times=1)
        assert service.apply_batch([UpdateOp.insert_vertex("a")]) == 0
        assert service.epoch == 0
        assert served_graph(service) == diamond()
        counters = service.registry.snapshot()["counters"]
        assert counters["service.updates_rejected"] == 1
        assert counters["service.rebuilds"] == 1

    def test_late_repro_error_is_a_kernel_failure(self, monkeypatch):
        # A ReproError from inside the TOL kernel comes after the graph
        # took the op: the op lands, through a rebuild.
        service = ReachabilityService(diamond())
        fail_once(
            monkeypatch, insertion, "_spread_new_labels", error=IndexStateError
        )
        assert service.apply_batch(
            [UpdateOp.insert_vertex("e", in_neighbors=["d"])]
        ) == 1
        assert service.epoch == 1
        assert service.query("a", "e") is True
        assert not service.degraded
        counters = service.registry.snapshot()["counters"]
        assert counters["service.updates_rejected"] == 0
        assert counters["service.rebuilds"] == 1

    def test_degraded_read_during_rebuild(self, monkeypatch):
        service, _ = self.poisoned_service(times=1)
        # Park the kernel-failure rebuild inside the index constructor.
        entered, release = park_inside(
            monkeypatch, server, "ReachabilityIndex"
        )
        writer = threading.Thread(
            target=service.insert_vertex, args=("e",), kwargs={"in_neighbors": ["d"]}
        )
        writer.start()
        try:
            assert entered.wait(10)
            assert service.degraded
            assert not service._rwlock.acquire_read(timeout=0.05)
            answers, epoch, degraded = service.query_batch_with_epoch(
                [("a", "e"), ("e", "a")]
            )
            assert (answers, epoch, degraded) == ([True, False], 1, True)
            assert "e" in service
            assert service.witness("a", "e") == "a"
        finally:
            release.set()
            writer.join(10)
        assert not writer.is_alive()
        assert not service.degraded
        assert service.query_batch_with_epoch([("a", "e")]) == ([True], 1, False)


class TestHalfAppliedKernel:
    """A kernel that stops after it started rewriting labels.

    Each case fails a kernel helper from inside, on a WAL-backed
    service, and checks the one rule end to end: every op counts, the
    index answers like BFS afterwards, one rebuild ran, and recovery
    from the same directory serves the same graph.
    """

    def run(self, tmp_path, ops):
        graph = random_dag(300, 1200, seed=3)
        service = ReachabilityService(
            graph.copy(),
            durability=DurabilityManager(tmp_path, fsync="never"),
        )
        expected = graph.copy()
        for op in ops:
            op.apply_to_graph(expected)
        rebuilds = service.registry.counter("service.rebuilds").value
        assert service.apply_batch(ops) == len(ops)
        assert service.epoch == len(ops)
        assert service.registry.counter("service.rebuilds").value == rebuilds + 1
        assert not service.degraded
        # The rebuilt index walks the one condensed DAG, and it is exact.
        index = service._index
        assert index.tol._graph is index.condensation.dag
        index.condensation.check_invariants()

        pairs = all_pairs(expected)
        answers = service.query_batch(pairs)
        assert answers == bfs_answers(expected, pairs)

        service.durability.close()
        recovered = ReachabilityService.recover(tmp_path, fsync="never")
        got = recovered.last_recovery.graph
        assert set(got.vertices()) == set(expected.vertices())
        assert set(got.edges()) == set(expected.edges())
        assert recovered.query_batch(pairs) == answers
        recovered.durability.close()

    def test_delete_of_the_hub_fails_inside_the_label_rebuild(
        self, tmp_path, monkeypatch
    ):
        graph = random_dag(300, 1200, seed=3)
        state = fail_once(monkeypatch, deletion, "_rebuild_labels", on_call=3)
        self.run(tmp_path, [UpdateOp.delete_vertex(hub(graph))])
        assert state["calls"] >= 3

    def test_insert_fails_while_spreading_new_labels(
        self, tmp_path, monkeypatch
    ):
        graph = random_dag(300, 1200, seed=3)
        v = hub(graph)
        state = fail_once(monkeypatch, insertion, "_spread_new_labels")
        self.run(tmp_path, [UpdateOp.insert_vertex(
            "new",
            in_neighbors=sorted(graph.in_neighbors(v))[:3] + [v],
            out_neighbors=sorted(graph.out_neighbors(v))[:3],
        )])
        assert state["calls"] >= 1

    def test_failure_on_the_second_op_of_three(self, tmp_path, monkeypatch):
        graph = random_dag(300, 1200, seed=3)
        v = hub(graph)
        tail, head = next(
            (s, t) for s, t in all_pairs(graph)
            if v not in (s, t) and s != t and not graph.has_edge(s, t)
        )
        fail_once(monkeypatch, deletion, "_rebuild_labels", on_call=3)
        self.run(tmp_path, [
            UpdateOp.insert_edge(tail, head),
            UpdateOp.delete_vertex(v),
            UpdateOp.insert_vertex("new", in_neighbors=[tail]),
        ])


class TestWalAppendFailure:
    def test_failed_append_rolls_the_batch_back(self, tmp_path):
        injector = FaultInjector()
        durability = DurabilityManager(
            tmp_path, fsync="never", injector=injector
        )
        service = ReachabilityService(
            diamond(), durability=durability, injector=injector
        )
        service.insert_vertex("e", in_neighbors=["d"])
        pairs = all_pairs(served_graph(service))
        answers = service.query_batch(pairs)
        records = durability.wal.records()
        before = served_graph(service).copy()

        # The batch's second record fails after its bytes were written.
        injector.arm("wal.append.after", "ioerror", after=3)
        with pytest.raises(OSError):
            service.apply_batch([
                UpdateOp.insert_vertex("f"),
                UpdateOp.insert_vertex("g"),
                UpdateOp.insert_vertex("h"),
            ])
        assert service.epoch == 1
        assert served_graph(service) == before
        assert service.query_batch(pairs) == answers
        assert durability.wal.records() == records

        service.insert_vertex("i", in_neighbors=["a"])
        assert [seq for seq, _ in durability.wal.records()] == [
            seq for seq, _ in records
        ] + [records[-1][0] + 1]

        durability.close()
        recovered = ReachabilityService.recover(tmp_path, fsync="never")
        assert recovered.last_recovery.graph == served_graph(service)
        assert "f" not in recovered and "i" in recovered
        assert recovered.query_batch(pairs) == service.query_batch(pairs)
        recovered.durability.close()


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
        # the graph they read reflects them immediately.
        service = ReachabilityService(diamond())
        service.enter_degraded()
        service.insert_vertex("e", in_neighbors=["d"])
        assert service.query("a", "e") is True
        service.delete_vertex("e")
        assert "e" not in service

    def test_metrics_scrape_survives_stuck_writer(self, monkeypatch):
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

        # Nor behind the graph lock, held by a writer parked inside a
        # kernel (the graph already holds the op's new vertex).
        entered, release = park_inside(
            monkeypatch, insertion, "_spread_new_labels"
        )
        writer = threading.Thread(
            target=service.insert_vertex, args=("e",), kwargs={"in_neighbors": ["d"]}
        )
        writer.start()
        try:
            assert entered.wait(10)
            gauges = service.registry.snapshot()["gauges"]
            assert gauges["index.num_vertices"] == 5
            assert gauges["index.size"] >= 0
        finally:
            release.set()
            writer.join(10)
        assert not writer.is_alive()
        assert service.epoch == 1

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
        # Sabotage the labels behind the service's back: the graph still
        # has a->b, so Definition 1 is violated for (a, b) and (a, c).
        corrupt_labels(service)
        assert service.self_audit(100) is False
        assert service.degraded
        counters = service.registry.snapshot()["counters"]
        assert counters["service.audit_failures"] == 1
        # Degraded readers get the *correct* answer meanwhile.
        assert service.query("a", "c") is True

    def test_degraded_witness_answers_from_mirror(self):
        service = ReachabilityService(
            DiGraph(edges=[("a", "b"), ("b", "c"), ("c", "d")])
        )
        corrupt_labels(service)
        assert service.self_audit(samples=64) is False
        assert service.degraded
        assert service.query("a", "d") is True
        assert service.witness("a", "d") == "a"
        assert service.witness("d", "a") is None
        with pytest.raises(VertexNotFoundError):
            service.query("a", "ghost")
        with pytest.raises(VertexNotFoundError):
            service.witness("a", "ghost")

    def test_rebuild_repairs_and_exits_degraded(self):
        service = self.chain_service()
        corrupt_labels(service)
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
