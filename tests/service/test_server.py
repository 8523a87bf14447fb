"""Single-threaded behavior tests for ReachabilityService.

Concurrency is exercised separately in ``test_concurrency.py``; here we
pin down the facade's sequential semantics: cache-through queries, batch
deduplication, batch validation, epoch accounting and the metric
registry.
"""

import pytest

from repro.bench.trace import generate_trace
from repro.bench.workloads import generate_zipfian_queries
from repro.core.index import ReachabilityIndex
from repro.errors import UnknownVertexError, VertexNotFoundError
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.service.server import ReachabilityService
from repro.core.ops import UpdateOp


def diamond() -> DiGraph:
    return DiGraph(edges=[("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


class TestConstruction:
    def test_from_graph(self):
        service = ReachabilityService(diamond())
        assert service.query("a", "d")
        assert service.epoch == 0

    def test_from_prebuilt_index(self):
        index = ReachabilityIndex(diamond())
        service = ReachabilityService(index=index)
        assert service.query("a", "d")

    def test_graph_and_index_mutually_exclusive(self):
        with pytest.raises(ValueError):
            ReachabilityService(diamond(), index=ReachabilityIndex(diamond()))

    def test_unknown_vertex_propagates(self):
        service = ReachabilityService(diamond())
        with pytest.raises(VertexNotFoundError):
            service.query("a", "ghost")


class TestQueryCache:
    def test_second_query_hits(self):
        service = ReachabilityService(diamond(), cache_size=16)
        service.query("a", "d")
        service.query("a", "d")
        stats = service.cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_write_invalidates(self):
        service = ReachabilityService(diamond(), cache_size=16)
        assert service.query("a", "d") is True
        service.delete_vertex("b")
        service.delete_vertex("c")
        assert service.query("a", "d") is False  # not the cached True
        assert service.cache.stats()["stale_drops"] >= 1

    def test_cache_disabled(self):
        service = ReachabilityService(diamond(), cache_size=0)
        service.query("a", "d")
        service.query("a", "d")
        assert service.cache.stats()["hits"] == 0

    def test_zipfian_workload_has_nonzero_hit_rate(self):
        # Acceptance criterion: a skewed read stream must actually cache.
        graph = random_dag(60, 150, seed=7)
        service = ReachabilityService(graph, cache_size=1024)
        workload = generate_zipfian_queries(graph, 500, skew=1.1, seed=3)
        for s, t in workload:
            service.query(s, t)
        assert service.cache.stats()["hit_rate"] > 0
        assert service.registry.counter("service.queries").value == 500


class TestQueryBatch:
    def test_matches_plain_index(self):
        graph = random_dag(40, 100, seed=2)
        service = ReachabilityService(graph)
        plain = ReachabilityIndex(graph)
        pairs = [(s, t) for s in list(graph.vertices())[:10]
                 for t in list(graph.vertices())[:10]]
        assert service.query_batch(pairs) == [plain.query(s, t)
                                              for s, t in pairs]

    def test_duplicates_answered_once_in_input_order(self):
        service = ReachabilityService(diamond(), cache_size=16)
        pairs = [("a", "d"), ("d", "a"), ("a", "d"), ("a", "d")]
        assert service.query_batch(pairs) == [True, False, True, True]
        counters = service.registry.snapshot()["counters"]
        assert counters["service.batch_dedup_saved"] == 2
        assert counters["service.queries"] == 4
        # Only the two unique pairs ever reached cache/index.
        assert service.cache.stats()["misses"] == 2

    def test_empty_batch(self):
        service = ReachabilityService(diamond())
        assert service.query_batch([]) == []


class TestUpdatesAndEpochs:
    def test_write_through_by_default(self):
        service = ReachabilityService(diamond())
        service.insert_vertex("e", in_neighbors=["d"])
        assert service.query("a", "e")
        assert service.epoch == 1

    def test_epoch_counts_each_successful_op(self):
        service = ReachabilityService(diamond())
        applied = service.apply_batch([
            UpdateOp.insert_edge("b", "c"),
            UpdateOp.delete_edge("b", "c"),
            UpdateOp.insert_vertex("e"),
            UpdateOp.insert_vertex("a"),  # exists: rejected at apply
        ])
        # The return value, the epoch delta and the applied counter
        # agree: the rejected op counts in none of them.
        assert applied == 3
        assert service.epoch == 3
        counters = service.registry.snapshot()["counters"]
        assert counters["service.updates_applied"] == 3
        assert counters["service.updates_rejected"] == 1

    def test_repeated_neighbour_is_harmless(self):
        # The op dedupes its neighbour list, so the mirror cannot raise
        # halfway through it and leave the epoch behind the graph.
        service = ReachabilityService(DiGraph(edges=[("a", "b"), ("b", "c")]))
        applied = service.apply_batch(
            [UpdateOp.insert_vertex("e", in_neighbors=["c", "c"])]
        )
        assert applied == 1
        assert service.epoch == 1
        assert service.query("a", "e") is True
        assert service.num_edges == 3
        counters = service.registry.snapshot()["counters"]
        assert counters["service.updates_rejected"] == 0

    def test_unknown_reference_rejected_at_submit(self):
        service = ReachabilityService(diamond())
        with pytest.raises(UnknownVertexError):
            service.delete_vertex("ghost")
        with pytest.raises(UnknownVertexError):
            service.insert_edge("a", "ghost")
        with pytest.raises(UnknownVertexError):
            service.insert_vertex("e", in_neighbors=["ghost"])
        # Nothing was applied.
        assert service.epoch == 0
        assert service.query("a", "d")

    def test_rejected_batch_applies_none_of_its_ops(self):
        service = ReachabilityService(diamond())
        with pytest.raises(UnknownVertexError):
            service.apply_batch([
                UpdateOp.insert_vertex("new", in_neighbors=["a"]),
                UpdateOp.delete_vertex("ghost"),
            ])
        assert service.epoch == 0 and "new" not in service
        # The next, unrelated batch does not land the rejected prefix.
        assert service.apply_batch([UpdateOp.insert_vertex("other")]) == 1
        assert service.epoch == 1
        assert "new" not in service and "other" in service

    def test_batch_prefix_satisfies_and_invalidates_references(self):
        service = ReachabilityService(diamond())
        service.apply_batch([
            UpdateOp.insert_vertex("e"),
            UpdateOp.insert_edge("d", "e"),  # "e" exists only in the batch
        ])
        assert service.query("a", "e")
        with pytest.raises(UnknownVertexError):
            service.apply_batch([
                UpdateOp.delete_vertex("e"),
                UpdateOp.insert_edge("d", "e"),  # deleted earlier in the batch
            ])
        assert service.epoch == 2 and "e" in service

    def test_invalid_op_rejected_at_apply_without_epoch_bump(self):
        # Inserting an existing vertex names no unknown vertex, so it
        # passes validation and is rejected by the index at apply time.
        service = ReachabilityService(diamond())
        service.insert_vertex("a")
        assert service.registry.counter("service.updates_rejected").value == 1
        assert service.epoch == 0
        # Service still healthy.
        assert service.query("a", "d")

    def test_reduce_labels_bumps_epoch(self):
        service = ReachabilityService(random_dag(30, 80, seed=4))
        before = service.epoch
        report = service.reduce_labels()
        assert service.epoch == before + 1
        assert report.final_size <= report.initial_size
        assert service.registry.counter("service.reductions").value == 1


class TestTraceEquivalence:
    def test_trace_through_service_matches_plain_index(self):
        # The service must agree with a plain index replaying the same
        # trace sequentially.
        graph = random_dag(30, 70, seed=5)
        trace = generate_trace(graph, 150, seed=6, query_fraction=0.5)

        plain = ReachabilityIndex(graph)
        service = ReachabilityService(graph)
        for op in trace:
            if op.kind == "query":
                assert service.query(op.tail, op.head) == plain.query(
                    op.tail, op.head
                ), op
            else:
                UpdateOp.from_trace_op(op).apply(plain)
                service.apply(UpdateOp.from_trace_op(op))


class TestIntrospection:
    def test_counts_and_repr(self):
        service = ReachabilityService(diamond())
        assert service.num_vertices == 4
        assert service.num_edges == 4
        assert "ReachabilityService" in repr(service)

    def test_snapshot_shape(self):
        service = ReachabilityService(diamond())
        service.query("a", "d")
        service.insert_vertex("e")
        snap = service.registry.snapshot()
        assert sorted(snap) == ["counters", "gauges", "histograms", "stats"]
        assert snap["gauges"]["service.epoch"] == 1
        assert snap["gauges"]["cache.misses"] == 1
        assert snap["histograms"]["service.query_latency"]["count"] == 1
        assert snap["histograms"]["service.batch_apply_latency"]["count"] == 1
        assert snap["stats"]["service.batch_size"]["count"] == 1
        assert snap["counters"]["service.queries"] == 1
        assert snap["counters"]["service.updates_applied"] == 1

    def test_registry_covers_service_cache_and_index(self):
        service = ReachabilityService(diamond())
        service.query("a", "d")
        service.query("a", "d")
        snap = service.registry.snapshot()
        assert snap["counters"]["service.queries"] == 2
        assert snap["gauges"]["cache.hits"] == 1
        assert snap["gauges"]["index.num_vertices"] == 4
        assert snap["gauges"]["service.epoch"] == 0
        assert snap["histograms"]["service.query_latency"]["count"] == 2

    def test_shared_registry_injection(self):
        from repro.obs import MetricRegistry

        registry = MetricRegistry()
        service = ReachabilityService(diamond(), registry=registry)
        assert service.registry is registry
        service.query("a", "d")
        assert registry.snapshot()["counters"]["service.queries"] == 1
