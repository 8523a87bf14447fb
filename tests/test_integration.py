"""End-to-end integration: all subsystems in one realistic lifecycle."""

import random

import pytest

from repro import (
    ReachabilityIndex,
    TOLIndex,
    freeze,
    labeling_stats,
    load_dataset,
    load_index,
    save_index,
)
from repro.baselines.transitive_closure import TransitiveClosureIndex
from repro.bench.harness import METHODS, build_method
from repro.bench.trace import generate_trace, replay_trace
from repro.bench.workloads import generate_queries
from repro.graph.traversal import bidirectional_reachable


class TestFullLifecycle:
    """Build -> persist -> restore -> update -> freeze -> serve."""

    def test_lifecycle(self, tmp_path):
        graph = load_dataset("citeseerx", num_vertices=300, seed=2)
        index = TOLIndex.build(graph, order="butterfly-u")

        # Persist + restore.
        path = tmp_path / "idx.tolf"
        save_index(index, path)
        restored = load_index(path)
        assert restored.labeling.snapshot() == index.labeling.snapshot()

        # Update the restored copy (the original must be unaffected).
        restored.insert_vertex("new", in_neighbors=[0])
        assert "new" in restored and "new" not in index

        # Reduce, then freeze for serving.
        restored.reduce_labels()
        frozen = freeze(restored)
        queries = generate_queries(restored.graph_copy(), 200, seed=3)
        for s, t in queries:
            assert frozen.query(s, t) == restored.query(s, t)

        # Stats stay coherent through it all.
        stats = labeling_stats(restored.labeling)
        assert stats.total_labels == restored.size() == frozen.size()

    def test_trace_through_persistence(self, tmp_path):
        graph = load_dataset("wiki", num_vertices=200, seed=4)
        trace = generate_trace(graph, 80, seed=5)

        index = ReachabilityIndex(graph)
        first = replay_trace(index, trace)

        # Persist the churned TOL, restore, and replay only the queries:
        # answers must match the live index's final state.
        path = tmp_path / "churned.tolf"
        save_index(index.tol, path)
        restored = load_index(path)
        live_comp = index.condensation
        checked = 0
        for op in trace:
            if op.kind != "query":
                continue
            if op.tail not in index or op.head not in index:
                continue  # endpoint deleted later in the trace
            expected = index.query(op.tail, op.head)
            got = restored.query(
                live_comp.component(op.tail), live_comp.component(op.head)
            )
            assert got == expected
            checked += 1
        assert checked > 0


class TestMethodMatrix:
    """Every registered method answers correctly on every dataset family."""

    @pytest.mark.parametrize("dataset", ["RG5", "uniprot22m", "wiki", "patent"])
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_method_on_dataset(self, dataset, method):
        graph = load_dataset(dataset, num_vertices=120, seed=6)
        index = build_method(method, graph)
        tc = TransitiveClosureIndex(graph)
        r = random.Random(7)
        vertices = list(graph.vertices())
        for _ in range(150):
            s, t = r.choice(vertices), r.choice(vertices)
            assert index.query(s, t) == tc.query(s, t), (method, dataset, s, t)


class TestCrossOracleAgreement:
    """Four independent reachability oracles must agree everywhere."""

    def test_oracle_quorum(self):
        from repro.baselines.grail import GrailIndex

        graph = load_dataset("GovWild", num_vertices=150, seed=8)
        oracles = [
            TOLIndex.build(graph, order="butterfly-l"),
            freeze(TOLIndex.build(graph, order="degree")),
            GrailIndex(graph, seed=8),
            TransitiveClosureIndex(graph),
        ]
        vertices = list(graph.vertices())
        r = random.Random(9)
        for _ in range(300):
            s, t = r.choice(vertices), r.choice(vertices)
            answers = {oracle.query(s, t) for oracle in oracles}
            answers.add(bidirectional_reachable(graph, s, t))
            assert len(answers) == 1, (s, t)
