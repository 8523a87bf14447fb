"""Regression catalog: every bug found while building this repo, pinned.

Each test encodes one concrete failure discovered during development (by
the property-test oracles) as a minimal deterministic scenario, so a
reintroduction is caught by name rather than by a shrunk hypothesis
counterexample.  The paper-errata regressions live next to their modules
(e.g. ``tests/core/test_deletion.py::TestStaleWitnessGuard``); these are
the *implementation* bugs.
"""

from repro.core.butterfly import butterfly_build
from repro.core.index import ReachabilityIndex, TOLIndex
from repro.core.order import LevelOrder
from repro.core.reference import reference_tol
from repro.graph.condensation import DynamicCondensation
from repro.graph.digraph import DiGraph


class TestButterflyBackwardSweep:
    """The backward sweep once compared against the whole Lin *mapping*
    instead of ``Lin(v)``, making every cover check succeed and silently
    dropping most out-labels."""

    def test_out_labels_survive(self):
        g = DiGraph(edges=[(9, 5), (9, 0), (0, 6)])
        # Order: 5 ranked above 9; 9 -> 5 with no interposed higher vertex.
        lab = butterfly_build(g, LevelOrder([6, 5, 0, 9]))
        assert 5 in lab.label_out[9]
        ref = reference_tol(g, LevelOrder([6, 5, 0, 9]))
        assert lab.snapshot() == ref.snapshot()


class TestCondensationBookkeeping:
    """Three independent bookkeeping leaks in DynamicCondensation."""

    def test_deleted_vertex_leaves_component_map(self):
        # delete_vertex once forgot component_of[v]; re-inserting the same
        # vertex then exploded with VertexExistsError.
        dc = DynamicCondensation(DiGraph(edges=[(1, 2)]))
        dc.apply_to_dag(dc.delete_vertex(2))
        dc.apply_to_dag(dc.insert_vertex(2, in_neighbors=[1]))
        assert dc.graph.has_edge(1, 2)
        dc.check_invariants()

    def test_split_edges_not_double_counted(self):
        # Splitting an SCC once recounted edges between the *new* pieces
        # from both endpoints, doubling their multiplicity.
        dc = DynamicCondensation(DiGraph(edges=[(0, 1), (1, 2), (2, 0)]))
        # SCC {0,1,2} splits into {1} and {2}
        dc.apply_to_dag(dc.delete_vertex(0))
        dc.check_invariants()
        assert dc.dag.num_edges == 1  # just 1 -> 2

    def test_initial_dag_edges_counted_once(self):
        # __init__ once added condensation edges both directly (via
        # condense()) and through the multiplicity counter.
        dc = DynamicCondensation(DiGraph(edges=[(0, 1), (0, 2), (1, 2)]))
        dc.check_invariants()


class TestEdgeDeletionAffectedRegion:
    """TOLIndex.delete_edge once removed the edge from the graph *before*
    the head's delete_vertex computed B-(head), so ancestors reachable only
    through the dying edge kept stale out-labels."""

    def test_stale_ancestor_label_cleared(self):
        # 1 -> 0 is the only path from 1 to 0's descendants {4}.
        g = DiGraph(edges=[(1, 0), (0, 4), (1, 2)])
        idx = TOLIndex.build(g, order=LevelOrder([4, 0, 1, 2]))
        assert idx.query(1, 4)
        idx.delete_edge(1, 0)
        assert not idx.query(1, 4)
        ref = reference_tol(idx.graph_copy(), idx.order)
        assert idx.labeling.snapshot() == ref.snapshot()


class TestInsertionPlacementSweep:
    """Two Algorithm-3 defects: simulating against the pre-insertion index
    under-counts coverage credit, and admitting +1 terms at the first
    blocker crossing over-counts.  Scenario: chain 4 -> 0 -> 3 -> 1 with 3
    removed and re-inserted; the optimal position is at the very top, which
    the broken sweeps never chose."""

    def test_top_placement_found(self):
        g = DiGraph(edges=[(0, 3), (3, 1), (4, 0)], vertices=[2])
        base = g.copy()
        base.remove_vertex(3)
        lab = butterfly_build(base, LevelOrder([4, 0, 2, 1]))
        from repro.core.insertion import insert_vertex

        insert_vertex(g, lab, 3)
        # Brute-force the best size over all placements.
        sizes = []
        for pos in ["bottom", *(("above", u) for u in [4, 0, 2, 1])]:
            lab2 = butterfly_build(base.copy(), LevelOrder([4, 0, 2, 1]))
            insert_vertex(g, lab2, 3, placement=pos)
            sizes.append(lab2.size())
        assert lab.size() == min(sizes)


class TestFacadeCycleRollback:
    """TOLIndex.insert_vertex once left the half-wired vertex in its
    private graph when the DAG check failed."""

    def test_graph_clean_after_rejected_insert(self):
        from repro.errors import NotADagError
        import pytest

        idx = TOLIndex.build(DiGraph(edges=[(1, 2)]))
        with pytest.raises(NotADagError):
            idx.insert_vertex(3, in_neighbors=[2], out_neighbors=[1])
        assert idx.num_vertices == 2
        assert idx.num_edges == 1
        # And the index still accepts the legal version.
        idx.insert_vertex(3, in_neighbors=[2])
        assert idx.query(1, 3)


class TestReductionGraphRestoration:
    """reduce_labels once failed to re-add isolated vertices to the graph
    after their delete/re-insert round trip."""

    def test_isolated_vertex_survives_reduction(self):
        g = DiGraph(edges=[(1, 2)], vertices=["loner"])
        idx = TOLIndex.build(g, order="topological")
        idx.reduce_labels()
        assert "loner" in idx
        assert idx.graph_copy().has_vertex("loner")


class TestHarnessCycleTolerance:
    """The benchmark adapter for TOL methods once wrapped the DAG-only
    TOLIndex directly, so replaying a trace with a cycle-creating op blew
    up; it now wraps ReachabilityIndex (full system, like Dagger)."""

    def test_adapter_absorbs_cycle(self):
        from repro.bench.harness import build_method

        g = DiGraph(edges=[(1, 2), (2, 3)])
        adapter = build_method("BU", g)
        adapter.insert_edge(3, 1)  # closes a cycle
        assert adapter.query(3, 2)

    def test_reachability_index_consistent_after_merge(self):
        g = DiGraph(edges=[(1, 2), (2, 3)])
        idx = ReachabilityIndex(g)
        idx.insert_edge(3, 1)
        idx.condensation.check_invariants()
        assert idx.query(2, 1)
