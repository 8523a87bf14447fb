"""Tests for ReachabilityIndex: dynamic reachability on cyclic graphs."""

import random

import pytest

from repro.core.index import ReachabilityIndex
from repro.errors import VertexNotFoundError
from repro.graph.digraph import DiGraph
from repro.graph.traversal import bidirectional_reachable


def assert_all_pairs(idx, graph):
    for s in graph.vertices():
        for t in graph.vertices():
            assert idx.query(s, t) == bidirectional_reachable(graph, s, t), (s, t)


class TestStatic:
    def test_dag_input(self):
        g = DiGraph(edges=[(1, 2), (2, 3)])
        idx = ReachabilityIndex(g)
        assert idx.query(1, 3)
        assert not idx.query(3, 1)

    def test_cyclic_input(self):
        g = DiGraph(edges=[("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
        idx = ReachabilityIndex(g)
        assert idx.query("a", "d")
        assert idx.query("b", "a")  # within the SCC
        assert not idx.query("d", "a")

    def test_empty(self):
        idx = ReachabilityIndex()
        assert idx.num_vertices == 0

    def test_query_never_inserted_vertex(self):
        # Regression: unknown endpoints raise the KeyError-derived
        # graph-lookup error rather than an opaque internal failure.
        idx = ReachabilityIndex(DiGraph(edges=[(1, 2)]))
        with pytest.raises(VertexNotFoundError) as excinfo:
            idx.query(1, "ghost")
        assert excinfo.value.vertex == "ghost"
        with pytest.raises(KeyError):
            idx.query("ghost", 1)

    def test_counts_reflect_original_graph(self):
        g = DiGraph(edges=[(1, 2), (2, 1), (2, 3)])
        idx = ReachabilityIndex(g)
        assert idx.num_vertices == 3
        assert idx.num_edges == 3
        assert idx.condensation.dag.num_vertices == 2

    def test_membership(self):
        idx = ReachabilityIndex(DiGraph(vertices=[1]))
        assert 1 in idx and 2 not in idx

    def test_order_strategy_parameter(self):
        g = DiGraph(edges=[(1, 2), (2, 3)])
        idx = ReachabilityIndex(g, order="degree")
        assert idx.query(1, 3)

    def test_repr(self):
        assert "ReachabilityIndex" in repr(ReachabilityIndex())


class TestUpdates:
    def test_edge_insert_merging_scc(self):
        g = DiGraph(edges=[(1, 2), (2, 3)])
        idx = ReachabilityIndex(g)
        idx.insert_edge(3, 1)
        assert idx.query(3, 1) and idx.query(2, 1)
        assert idx.condensation.dag.num_vertices == 1

    def test_edge_delete_splitting_scc(self):
        g = DiGraph(edges=[(1, 2), (2, 3), (3, 1)])
        idx = ReachabilityIndex(g)
        idx.delete_edge(3, 1)
        assert idx.query(1, 3)
        assert not idx.query(3, 1)

    def test_vertex_ops(self):
        g = DiGraph(edges=[("a", "b")])
        idx = ReachabilityIndex(g)
        idx.insert_vertex("c", in_neighbors=["b"], out_neighbors=["a"])
        assert idx.query("b", "a")  # cycle a -> b -> c -> a formed
        idx.delete_vertex("c")
        assert not idx.query("b", "a")

    def test_reduce_labels_via_facade(self):
        g = DiGraph(edges=[(i, i + 1) for i in range(20)])
        idx = ReachabilityIndex(g, order="topological")
        before = idx.size()
        idx.reduce_labels()
        assert idx.size() <= before
        assert idx.query(0, 20)

    @pytest.mark.parametrize("trial", range(12))
    def test_random_cyclic_update_storm(self, trial):
        r = random.Random(trial)
        n = r.randint(2, 8)
        g = DiGraph(vertices=range(n))
        for i in range(n):
            for j in range(n):
                if i != j and r.random() < 0.2:
                    g.add_edge_if_absent(i, j)
        idx = ReachabilityIndex(g)
        live = g.copy()
        nxt = n
        for _ in range(12):
            roll = r.random()
            if roll < 0.25 and live.num_vertices > 1:
                v = r.choice(list(live.vertices()))
                live.remove_vertex(v)
                idx.delete_vertex(v)
            elif roll < 0.5:
                pairs = [
                    (a, b)
                    for a in live.vertices()
                    for b in live.vertices()
                    if a != b and not live.has_edge(a, b)
                ]
                if pairs:
                    a, b = r.choice(pairs)
                    live.add_edge(a, b)
                    idx.insert_edge(a, b)
            elif roll < 0.75:
                edges = list(live.edges())
                if edges:
                    a, b = r.choice(edges)
                    live.remove_edge(a, b)
                    idx.delete_edge(a, b)
            else:
                verts = list(live.vertices())
                ins = [x for x in verts if r.random() < 0.3]
                outs = [x for x in verts if r.random() < 0.3]
                live.add_vertex_if_absent(nxt)
                for u in ins:
                    live.add_edge(u, nxt)
                for w in outs:
                    live.add_edge(nxt, w)
                idx.insert_vertex(nxt, ins, outs)
                nxt += 1
            assert_all_pairs(idx, live)


class TestRestore:
    def test_tol_over_an_equal_copy_adopts_the_condensation_dag(self):
        # A TOL index built on a copy of the condensed DAG (as a traced
        # build does) walks the condensation's own DAG once restored, so
        # the updates that write it keep the condensation exact.
        from repro.core.index import TOLIndex
        from repro.graph.condensation import DynamicCondensation

        g = DiGraph(edges=[(0, 1), (1, 2), (2, 3), (3, 4)])
        cond = DynamicCondensation(g.copy())
        idx = ReachabilityIndex.restore(cond, TOLIndex.build(cond.dag))
        assert idx.tol._graph is cond.dag
        idx.insert_edge(3, 1)  # merges {1, 2, 3}
        idx.insert_edge(4, 0)  # merges everything
        cond.check_invariants()
        g.add_edge(3, 1)
        g.add_edge(4, 0)
        assert_all_pairs(idx, g)

