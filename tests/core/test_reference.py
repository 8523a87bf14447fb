"""Tests for the Definition-1 reference construction and reach maps."""

from hypothesis import given

from repro.core.order import LevelOrder
from repro.core.reference import ancestors_map, descendants_map, reference_tol
from repro.graph.digraph import DiGraph
from repro.graph.traversal import backward_reachable, forward_reachable

from ..conftest import dags_with_order, small_dags


class TestReachMaps:
    def test_chain(self):
        g = DiGraph(edges=[(1, 2), (2, 3)])
        assert descendants_map(g) == {1: {2, 3}, 2: {3}, 3: set()}
        assert ancestors_map(g) == {1: set(), 2: {1}, 3: {1, 2}}

    def test_empty(self):
        assert descendants_map(DiGraph()) == {}

    @given(small_dags())
    def test_matches_bfs(self, graph):
        desc = descendants_map(graph)
        anc = ancestors_map(graph)
        for v in graph.vertices():
            assert desc[v] == forward_reachable(graph, v)
            assert anc[v] == backward_reachable(graph, v)


class TestReferenceTOL:
    def test_three_constraints_hold(self):
        g = DiGraph(edges=[(1, 2), (2, 3), (1, 3)])
        order = LevelOrder([2, 1, 3])
        lab = reference_tol(g, order)
        desc = descendants_map(g)
        for v in g.vertices():
            for u in lab.label_in[v]:
                assert v in desc[u]          # Reachability
                assert order.higher(u, v)    # Level
            for u in lab.label_out[v]:
                assert u in desc[v]
                assert order.higher(u, v)

    def test_direct_cover_example(self):
        # 1 -> 2 -> 3 with order 2 > 1 > 3: 1 ∉ Lin(3) because the only
        # path runs through 2, which outranks 1.
        g = DiGraph(edges=[(1, 2), (2, 3)])
        lab = reference_tol(g, LevelOrder([2, 1, 3]))
        assert lab.label_in[3] == {2}
        assert lab.label_out[1] == {2}

    @given(dags_with_order())
    def test_witness_completeness(self, pair):
        """Lemma 1: every reachable pair has a witness, none spurious."""
        graph, order = pair
        lab = reference_tol(graph, order)
        desc = descendants_map(graph)
        for s in graph.vertices():
            for t in graph.vertices():
                expected = s == t or t in desc[s]
                assert lab.query(s, t) == expected

    @given(dags_with_order())
    def test_minimality(self, pair):
        """Lemma 2: dropping any label breaks its own query."""
        graph, order = pair
        lab = reference_tol(graph, order)
        for v in list(lab.vertices()):
            for u in list(lab.label_in[v]):
                lab.remove_in_id(lab.id_of(v), lab.id_of(u))
                assert not lab.query(u, v)
                lab.add_in_label(v, u)
            for u in list(lab.label_out[v]):
                lab.remove_out_id(lab.id_of(v), lab.id_of(u))
                assert not lab.query(v, u)
                lab.add_out_label(v, u)
