"""End-to-end checks that the core algorithms emit their spans.

These tests run real operations (build, insert, delete, reduce, serve)
under :func:`trace.capture` and assert the promised telemetry lands in
the registry — they are the contract ``docs/observability.md`` documents.
"""

import pytest

from repro.core import butterfly_build, resolve_order_strategy
from repro.core.deletion import delete_vertex
from repro.core.insertion import insert_vertex
from repro.core.reduction import reduce_labels
from repro.graph.generators import random_dag
from repro.obs import trace


@pytest.fixture(autouse=True)
def _tracing_off():
    trace.disable()
    yield
    trace.disable()


@pytest.fixture
def indexed():
    graph = random_dag(60, 180, seed=11)
    order = resolve_order_strategy("butterfly-u")(graph)
    labeling = butterfly_build(graph, order)
    return graph, labeling


class TestBuildSpan:
    def test_build_emits_span_and_per_level_events(self):
        graph = random_dag(40, 100, seed=3)
        order = resolve_order_strategy("butterfly-u")(graph)
        with trace.capture() as reg:
            labeling = butterfly_build(graph, order)
        snap = reg.snapshot()
        assert snap["histograms"]["span.tol.build"]["count"] == 1
        # One tol.build.level event per peeled vertex.
        assert snap["counters"]["event.tol.build.level"] == 40
        # |V_k| starts at |V| and the span records the final label count.
        assert snap["stats"]["event.tol.build.level.v_k"]["max"] == 40
        assert snap["stats"]["event.tol.build.level.v_k"]["min"] == 1
        assert snap["stats"]["event.tol.build.level.e_k"]["max"] == 100
        assert snap["stats"]["span.tol.build.labels"]["max"] == labeling.size()

    def test_residual_edges_reach_zero_on_a_path(self):
        graph = random_dag(10, 9, seed=1)
        order = resolve_order_strategy("butterfly-u")(graph)
        with trace.capture() as reg:
            butterfly_build(graph, order)
        # The last peel sees a single vertex and no surviving edges.
        assert reg.snapshot()["stats"]["event.tol.build.level.e_k"]["min"] == 0


class TestInsertDeleteSpans:
    def test_insert_records_choose_level_and_labels_added(self, indexed):
        graph, labeling = indexed
        graph.add_vertex_if_absent("new")
        graph.add_edge(0, "new")
        with trace.capture() as reg:
            insert_vertex(graph, labeling, "new")
        snap = reg.snapshot()
        assert snap["histograms"]["span.tol.insert"]["count"] == 1
        assert snap["histograms"]["span.tol.insert.choose_level"]["count"] == 1
        scanned = snap["stats"]["span.tol.insert.choose_level.candidates_scanned"]
        assert scanned["max"] >= 1
        assert snap["stats"]["span.tol.insert.labels_added"]["count"] == 1

    def test_delete_records_frontiers_and_labels_removed(self, indexed):
        graph, labeling = indexed
        v = next(iter(labeling.order))
        with trace.capture() as reg:
            delete_vertex(graph, labeling, v)
        snap = reg.snapshot()
        assert snap["histograms"]["span.tol.delete"]["count"] == 1
        for attr in (
            "frontier_fwd", "frontier_bwd", "rebuilt_in", "rebuilt_out",
            "labels_changed", "labels_removed",
        ):
            assert snap["stats"][f"span.tol.delete.{attr}"]["count"] == 1
            assert snap["stats"][f"span.tol.delete.{attr}"]["min"] >= 0
        stat = {k: snap["stats"][f"span.tol.delete.{k}"]["max"] for k in (
            "frontier_fwd", "frontier_bwd", "rebuilt_in", "rebuilt_out",
            "labels_changed",
        )}
        # The cut-off rebuilds a subset of each frontier; a changed label
        # set is a rebuilt one.
        assert stat["rebuilt_in"] <= stat["frontier_fwd"]
        assert stat["rebuilt_out"] <= stat["frontier_bwd"]
        assert stat["labels_changed"] <= stat["rebuilt_in"] + stat["rebuilt_out"]


class TestReductionSpan:
    def test_reduction_emits_round_trajectory(self, indexed):
        graph, labeling = indexed
        with trace.capture() as reg:
            report = reduce_labels(graph, labeling, max_rounds=2)
        snap = reg.snapshot()
        assert snap["histograms"]["span.tol.reduction"]["count"] == 1
        rounds = snap["counters"]["event.tol.reduction.round"]
        assert rounds == len(report.round_sizes)
        assert (
            snap["stats"]["event.tol.reduction.round.size"]["min"]
            == report.final_size
        )
        assert (
            snap["stats"]["span.tol.reduction.final_size"]["max"]
            == report.final_size
        )


class TestDisabledLeavesNoTrace:
    def test_operations_run_clean_without_tracing(self, indexed):
        graph, labeling = indexed
        v = next(iter(labeling.order))
        delete_vertex(graph, labeling, v)  # no registry, must not raise
        assert trace.current_registry() is None


class TestServiceIntegration:
    def test_one_replay_one_registry(self):
        """The acceptance scenario: service + core spans in one snapshot."""
        from repro.service import ReachabilityService

        graph = random_dag(50, 150, seed=5)
        with trace.capture() as reg:
            service = ReachabilityService(graph, registry=reg)
            vs = list(graph.vertices())
            service.query(vs[0], vs[1])
            service.query(vs[0], vs[1])  # cache hit
            service.delete_vertex(vs[2])
            service.reduce_labels(max_rounds=1)
            snap = service.registry.snapshot()
        # Core spans... (reduction round-trips every vertex through
        # delete/insert, so tol.delete counts far exceed the one explicit
        # deletion — only the lower bound is stable).
        assert snap["histograms"]["span.tol.build"]["count"] == 1
        assert snap["histograms"]["span.tol.delete"]["count"] >= 1
        assert snap["histograms"]["span.tol.reduction"]["count"] == 1
        # ...service counters and latency...
        assert snap["counters"]["service.queries"] == 2
        assert snap["histograms"]["service.query_latency"]["count"] == 2
        # ...and cache gauges, all through ONE registry.
        assert snap["gauges"]["cache.hits"] == 1
        assert snap["gauges"]["cache.hit_rate"] == 0.5
