"""Unit and randomized tests for the dynamic SCC condensation."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import (
    EdgeExistsError,
    EdgeNotFoundError,
    VertexExistsError,
    VertexNotFoundError,
)
from repro.graph.condensation import DynamicCondensation
from repro.graph.dag import is_dag
from repro.graph.digraph import DiGraph


class TestBasics:
    def test_initial_dag(self):
        dc = DynamicCondensation(DiGraph(edges=[(1, 2), (2, 3)]))
        assert dc.dag.num_vertices == 3
        assert dc.dag.num_edges == 2
        dc.check_invariants()

    def test_initial_cycle_contracted(self):
        dc = DynamicCondensation(DiGraph(edges=[(1, 2), (2, 1)]))
        assert dc.dag.num_vertices == 1
        assert dc.same_component(1, 2)

    def test_empty(self):
        dc = DynamicCondensation()
        assert dc.dag.num_vertices == 0

    def test_component_lookup_missing(self):
        with pytest.raises(VertexNotFoundError):
            DynamicCondensation().component("ghost")


class TestVertexInsertion:
    def test_isolated(self):
        dc = DynamicCondensation()
        delta = dc.insert_vertex("a")
        dc.apply_to_dag(delta)
        assert delta.removed == ()
        assert len(delta.added) == 1
        dc.check_invariants()

    def test_with_edges(self):
        dc = DynamicCondensation(DiGraph(vertices=[1, 2]))
        delta = dc.insert_vertex(3, in_neighbors=[1], out_neighbors=[2])
        dc.apply_to_dag(delta)
        assert len(delta.added) == 1
        comp = delta.added[0]
        assert dc.dag.has_edge(dc.component(1), comp)
        assert dc.dag.has_edge(comp, dc.component(2))
        dc.check_invariants()

    def test_cycle_creating_insert_merges(self):
        dc = DynamicCondensation(DiGraph(edges=[(1, 2)]))
        delta = dc.insert_vertex(3, in_neighbors=[2], out_neighbors=[1])
        dc.apply_to_dag(delta)
        assert dc.same_component(1, 3) and dc.same_component(2, 3)
        assert len(delta.removed) == 2
        assert len(delta.added) == 1
        dc.check_invariants()

    def test_duplicate_vertex_rejected(self):
        dc = DynamicCondensation(DiGraph(vertices=[1]))
        with pytest.raises(VertexExistsError):
            dc.insert_vertex(1)

    def test_unknown_neighbor_rejected(self):
        dc = DynamicCondensation()
        with pytest.raises(VertexNotFoundError):
            dc.insert_vertex("v", in_neighbors=["ghost"])


class TestVertexDeletion:
    def test_singleton(self):
        dc = DynamicCondensation(DiGraph(edges=[(1, 2)]))
        delta = dc.delete_vertex(2)
        dc.apply_to_dag(delta)
        assert len(delta.removed) == 1
        assert delta.added == ()
        assert 2 not in dc.component_of
        dc.check_invariants()

    def test_reinsert_after_delete(self):
        dc = DynamicCondensation(DiGraph(edges=[(1, 2)]))
        dc.apply_to_dag(dc.delete_vertex(2))
        dc.apply_to_dag(dc.insert_vertex(2, in_neighbors=[1]))
        assert dc.graph.has_edge(1, 2)
        dc.check_invariants()

    def test_component_split(self):
        # 1 -> 2 -> 3 -> 1 is one SCC; deleting 2 splits it into {1}, {3}.
        dc = DynamicCondensation(DiGraph(edges=[(1, 2), (2, 3), (3, 1)]))
        assert dc.dag.num_vertices == 1
        delta = dc.delete_vertex(2)
        dc.apply_to_dag(delta)
        assert len(delta.added) == 2
        assert not dc.same_component(1, 3)
        dc.check_invariants()


class TestEdgeUpdates:
    def test_edge_between_components(self):
        dc = DynamicCondensation(DiGraph(vertices=[1, 2]))
        delta = dc.insert_edge(1, 2)
        dc.apply_to_dag(delta)
        assert dc.dag.has_edge(dc.component(1), dc.component(2))
        assert delta.removed == (dc.component(2),)
        dc.check_invariants()

    def test_parallel_member_edge_is_silent(self):
        dc = DynamicCondensation(DiGraph(edges=[(1, 2), (2, 3), (1, 4), (4, 3)]))
        # 1 -> 3 adds a second member edge pattern between distinct comps?
        delta = dc.insert_edge(1, 3)
        dc.apply_to_dag(delta)
        dc.check_invariants()
        # comp(1) -> comp(3) edge already existed via no direct edge: the
        # delta must at most refresh comp(3).
        assert set(delta.removed) <= {dc.component(3)}

    def test_cycle_creating_edge_merges(self):
        dc = DynamicCondensation(DiGraph(edges=[(1, 2), (2, 3)]))
        delta = dc.insert_edge(3, 1)
        dc.apply_to_dag(delta)
        assert dc.dag.num_vertices == 1
        assert len(delta.removed) == 3 and len(delta.added) == 1
        dc.check_invariants()

    def test_intra_component_edge_is_silent(self):
        # A new chord inside an existing SCC changes nothing condensed.
        dc = DynamicCondensation(DiGraph(edges=[(1, 2), (2, 3), (3, 1)]))
        delta = dc.insert_edge(1, 3)
        dc.apply_to_dag(delta)
        assert delta.is_empty()
        dc.check_invariants()

    def test_duplicate_edge_rejected(self):
        dc = DynamicCondensation(DiGraph(edges=[(1, 2)]))
        with pytest.raises(EdgeExistsError):
            dc.insert_edge(1, 2)

    def test_missing_edge_rejected(self):
        dc = DynamicCondensation(DiGraph(vertices=[1, 2]))
        with pytest.raises(EdgeNotFoundError):
            dc.delete_edge(1, 2)

    def test_edge_deletion_splits_scc(self):
        dc = DynamicCondensation(DiGraph(edges=[(1, 2), (2, 3), (3, 1)]))
        delta = dc.delete_edge(3, 1)
        dc.apply_to_dag(delta)
        assert dc.dag.num_vertices == 3
        assert len(delta.added) == 3
        dc.check_invariants()

    def test_edge_deletion_between_components(self):
        dc = DynamicCondensation(DiGraph(edges=[(1, 2)]))
        delta = dc.delete_edge(1, 2)
        dc.apply_to_dag(delta)
        assert dc.dag.num_edges == 0
        assert delta.removed == (dc.component(2),)
        dc.check_invariants()

    def test_dag_edge_goes_with_the_last_member_edge(self):
        # Tail SCC {1, 2, 3} has two member edges into head {9}.
        dc = DynamicCondensation(
            DiGraph(edges=[(1, 2), (2, 3), (3, 1), (1, 9), (2, 9)])
        )
        c_tail, c_head = dc.component(1), dc.component(9)
        assert dc.delete_edge(1, 9).is_empty()
        assert dc.dag.has_edge(c_tail, c_head)
        dc.check_invariants()
        delta = dc.delete_edge(2, 9)
        assert delta.removed == (c_head,) and delta.added == (c_head,)
        dc.apply_to_dag(delta)
        assert not dc.dag.has_edge(c_tail, c_head)
        dc.check_invariants()


@given(st.integers(0, 150))
def test_randomized_update_sequences(seed):
    """Any update sequence keeps the condensation equal to from-scratch."""
    r = random.Random(seed)
    n = r.randint(1, 7)
    g = DiGraph(vertices=range(n))
    for i in range(n):
        for j in range(n):
            if i != j and r.random() < 0.2:
                g.add_edge_if_absent(i, j)
    dc = DynamicCondensation(g.copy())
    nxt = n
    for _ in range(15):
        roll = r.random()
        if roll < 0.25 and dc.graph.num_vertices > 1:
            victim = r.choice(list(dc.graph.vertices()))
            dc.apply_to_dag(dc.delete_vertex(victim))
        elif roll < 0.5:
            pairs = [
                (a, b)
                for a in dc.graph.vertices()
                for b in dc.graph.vertices()
                if a != b and not dc.graph.has_edge(a, b)
            ]
            if pairs:
                dc.apply_to_dag(dc.insert_edge(*r.choice(pairs)))
        elif roll < 0.75:
            edges = list(dc.graph.edges())
            if edges:
                dc.apply_to_dag(dc.delete_edge(*r.choice(edges)))
        else:
            verts = list(dc.graph.vertices())
            ins = [x for x in verts if r.random() < 0.3]
            outs = [x for x in verts if r.random() < 0.3]
            dc.apply_to_dag(dc.insert_vertex(nxt, ins, outs))
            nxt += 1
        dc.check_invariants()
        assert is_dag(dc.dag)
