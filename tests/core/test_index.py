"""Tests for the TOLIndex facade (DAG-level public API)."""

import random

import pytest

from repro.core.index import TOLIndex
from repro.core.order import LevelOrder
from repro.core.reference import reference_tol
from repro.core.validation import find_violations
from repro.errors import IndexStateError, NotADagError, UnknownVertexError
from repro.graph.digraph import DiGraph
from repro.graph.generators import figure1_dag, random_dag

from ..conftest import make_random_dag


class TestBuild:
    def test_default_order(self):
        idx = TOLIndex.build(figure1_dag())
        assert idx.query("e", "c")
        assert not idx.query("c", "e")
        assert idx.num_vertices == 8
        assert idx.num_edges == 10

    @pytest.mark.parametrize(
        "order", ["butterfly-u", "butterfly-l", "topological", "degree",
                  "hierarchical", "random"]
    )
    def test_every_strategy_builds_correct_index(self, order):
        g = random_dag(20, 60, seed=1)
        idx = TOLIndex.build(g, order=order)
        assert find_violations(idx.graph_copy(), idx.labeling) == []

    def test_explicit_level_order(self):
        g = DiGraph(edges=[(1, 2)])
        idx = TOLIndex.build(g, order=LevelOrder([2, 1]))
        assert idx.out_labels(1) == frozenset({2})

    def test_cyclic_graph_rejected(self):
        with pytest.raises(NotADagError):
            TOLIndex.build(DiGraph(edges=[(1, 2), (2, 1)]))

    def test_build_copies_graph(self):
        g = figure1_dag()
        idx = TOLIndex.build(g)
        g.remove_vertex("a")  # mutating the caller's graph is harmless
        assert idx.query("a", "c")

    def test_sizes(self):
        idx = TOLIndex.build(figure1_dag(), order=LevelOrder(list("abcdefgh")))
        assert idx.size() == 14
        assert idx.size_bytes() == 56

    def test_contains_and_labels(self):
        idx = TOLIndex.build(figure1_dag(), order=LevelOrder(list("abcdefgh")))
        assert "a" in idx and "zz" not in idx
        assert idx.in_labels("f") == frozenset({"a", "b", "d"})
        assert idx.out_labels("f") == frozenset({"c"})

    def test_witness(self):
        idx = TOLIndex.build(figure1_dag(), order=LevelOrder(list("abcdefgh")))
        assert idx.witness("e", "c") == "a"
        assert idx.witness("c", "e") is None

    def test_repr(self):
        assert "TOLIndex" in repr(TOLIndex.build(DiGraph(vertices=[1])))


class TestUpdates:
    def test_insert_then_query(self):
        idx = TOLIndex.build(figure1_dag())
        idx.insert_vertex("z", in_neighbors=["c"])
        assert idx.query("e", "z")
        assert not idx.query("z", "a")

    def test_insert_cycle_rejected_and_rolled_back(self):
        idx = TOLIndex.build(DiGraph(edges=[(1, 2)]))
        with pytest.raises(NotADagError):
            idx.insert_vertex(3, in_neighbors=[2], out_neighbors=[1])
        assert 3 not in idx
        assert idx.num_vertices == 2
        # The index still works and can absorb a legal insert.
        idx.insert_vertex(3, in_neighbors=[2])
        assert idx.query(1, 3)

    def test_insert_cycle_names_first_offending_pair(self):
        # a -> b and c -> d both close a cycle through v; the pairs are
        # checked out-neighbour by out-neighbour, so (a, b) is named.
        idx = TOLIndex.build(DiGraph(edges=[("a", "b"), ("c", "d")]))
        with pytest.raises(NotADagError) as excinfo:
            idx.insert_vertex("v", in_neighbors=["d", "b"],
                              out_neighbors=["a", "c"])
        assert str(excinfo.value) == (
            "inserting 'v' would create a cycle "
            "('b' -> 'v' -> 'a' -> ... -> 'b')"
        )
        assert "v" not in idx

    def test_query_never_inserted_vertex(self):
        # Regression: unknown query endpoints must raise the dedicated
        # KeyError-derived exception, not whatever the label lookup does.
        idx = TOLIndex.build(figure1_dag())
        with pytest.raises(UnknownVertexError) as excinfo:
            idx.query("e", "ghost")
        assert excinfo.value.vertex == "ghost"
        assert "ghost" in str(excinfo.value)
        with pytest.raises(KeyError):
            idx.query("ghost", "e")
        with pytest.raises(IndexStateError):  # the historical contract
            idx.query("ghost", "ghost")

    def test_insert_duplicate_rejected(self):
        idx = TOLIndex.build(DiGraph(vertices=[1]))
        with pytest.raises(IndexStateError):
            idx.insert_vertex(1)

    def test_delete_unknown_rejected(self):
        idx = TOLIndex.build(DiGraph(vertices=[1]))
        with pytest.raises(IndexStateError):
            idx.delete_vertex(2)

    def test_delete_then_queries_update(self):
        idx = TOLIndex.build(figure1_dag())
        idx.delete_vertex("a")
        assert not idx.query("e", "c")
        assert idx.query("b", "c")

    def test_optimal_level_is_side_effect_free(self):
        idx = TOLIndex.build(figure1_dag())
        before = idx.labeling.snapshot()
        choice = idx.optimal_level("probe", in_neighbors=["a"], out_neighbors=["c"])
        assert "probe" not in idx
        assert idx.labeling.snapshot() == before
        assert choice.theta <= 0

    def test_placement_passthrough(self):
        idx = TOLIndex.build(DiGraph(edges=[(1, 2)]), order=LevelOrder([1, 2]))
        idx.insert_vertex(3, in_neighbors=[2], placement="bottom")
        assert idx.order.last() == 3

    @pytest.mark.parametrize("trial", range(15))
    def test_random_update_storm_stays_reference_exact(self, trial):
        r = random.Random(trial)
        g = make_random_dag(trial, max_n=8)
        idx = TOLIndex.build(g, order="butterfly-u")
        live = g.copy()
        nxt = 1000
        for _ in range(10):
            if r.random() < 0.5 and live.num_vertices > 1:
                v = r.choice(list(live.vertices()))
                live.remove_vertex(v)
                idx.delete_vertex(v)
            else:
                verts = list(live.vertices())
                ins = [x for x in verts if r.random() < 0.3]
                outs = [x for x in verts if x not in ins and r.random() < 0.3]
                v = nxt
                nxt += 1
                try:
                    idx.insert_vertex(v, ins, outs)
                except NotADagError:
                    continue  # sampled edges would close a cycle
                live.add_vertex_if_absent(v)
                for u in ins:
                    live.add_edge(u, v)
                for w in outs:
                    live.add_edge(v, w)
            ref = reference_tol(live, idx.order)
            assert idx.labeling.snapshot() == ref.snapshot()


class TestReduceLabels:
    def test_reduce_via_facade(self):
        g = random_dag(15, 40, seed=2)
        idx = TOLIndex.build(g, order="topological")
        before = idx.size()
        report = idx.reduce_labels()
        assert idx.size() == report.final_size <= before
