"""Tests for vertex deletion (Algorithm 4), incl. the stale-witness guard."""

import random

import pytest

from repro.core.butterfly import butterfly_build
from repro.core.deletion import delete_vertex
from repro.core.order import LevelOrder
from repro.core.reference import reference_tol
from repro.core.validation import assert_queries_correct
from repro.errors import IndexStateError
from repro.graph.digraph import DiGraph
from repro.obs import trace

from ..conftest import make_random_dag


class TestBasics:
    def test_delete_isolated(self):
        g = DiGraph(vertices=[1, 2])
        lab = butterfly_build(g, LevelOrder([1, 2]))
        delete_vertex(g, lab, 2)
        assert 2 not in lab
        assert 2 not in g
        assert 2 not in lab.order

    def test_delete_unknown_rejected(self):
        g = DiGraph(vertices=[1])
        lab = butterfly_build(g, LevelOrder([1]))
        with pytest.raises(IndexStateError):
            delete_vertex(g, lab, 99)

    def test_delete_bridge_disconnects(self):
        g = DiGraph(edges=[(1, 2), (2, 3)])
        lab = butterfly_build(g, LevelOrder([1, 2, 3]))
        assert lab.query(1, 3)
        delete_vertex(g, lab, 2)
        assert not lab.query(1, 3)

    def test_delete_keeps_alternate_paths(self):
        g = DiGraph(edges=[(1, 2), (2, 4), (1, 3), (3, 4)])
        lab = butterfly_build(g, LevelOrder([1, 2, 3, 4]))
        delete_vertex(g, lab, 2)
        assert lab.query(1, 4)

    def test_delete_everything(self):
        g = DiGraph(edges=[(1, 2), (1, 3), (3, 2)])
        lab = butterfly_build(g, LevelOrder([2, 3, 1]))
        for v in [1, 2, 3]:
            delete_vertex(g, lab, v)
        assert lab.num_vertices == 0
        assert g.num_vertices == 0


@pytest.mark.parametrize("trial", range(60))
def test_deletion_matches_reference(trial):
    r = random.Random(trial)
    g = make_random_dag(trial, max_n=11)
    if g.num_vertices < 2:
        pytest.skip("too small")
    seq = list(g.vertices())
    r.shuffle(seq)
    lab = butterfly_build(g, LevelOrder(seq))
    v = r.choice(seq)
    delete_vertex(g, lab, v)
    ref = reference_tol(g, lab.order)
    assert lab.snapshot() == ref.snapshot()
    lab.check_invariants()
    assert_queries_correct(g, lab)


@pytest.mark.parametrize("trial", range(25))
def test_delete_all_one_by_one(trial):
    r = random.Random(500 + trial)
    g = make_random_dag(trial, max_n=8)
    seq = list(g.vertices())
    r.shuffle(seq)
    lab = butterfly_build(g, LevelOrder(seq))
    victims = list(g.vertices())
    r.shuffle(victims)
    for v in victims:
        delete_vertex(g, lab, v)
        ref = reference_tol(g, lab.order)
        assert lab.snapshot() == ref.snapshot(), v


class TestStaleWitnessGuard:
    """Regression for the soundness gap in the printed Algorithm 4.

    Construction: order ``x > w > u > others`` with
    ``w -> v -> x`` (so ``x ∈ Lout(w)`` *only* via the deleted vertex v),
    ``x -> u`` (so ``x ∈ Lin(u)``) and ``w -> m -> u`` (a surviving path
    that should make ``w ∈ Lin(u)`` after the deletion).  Rebuilding
    ``Lin(u)`` consults the stale ``Lout(w) ∋ x`` and — without the guard
    — wrongly concludes ``w`` is covered, leaving ``w -> u`` unanswerable.
    """

    def build(self):
        g = DiGraph(
            edges=[
                ("w", "v"), ("v", "x"),   # w -> x only through v
                ("x", "u"),               # x above w, reaches u
                ("w", "m"), ("m", "u"),   # surviving path w -> u
            ]
        )
        order = LevelOrder(["x", "w", "v", "m", "u"])
        lab = butterfly_build(g, order)
        # Preconditions of the scenario.
        assert "x" in lab.label_out["w"]
        assert "x" in lab.label_in["u"]
        return g, lab

    def test_scenario_preconditions_hold(self):
        self.build()

    def test_deletion_remains_sound(self):
        g, lab = self.build()
        delete_vertex(g, lab, "v")
        assert lab.query("w", "u"), "stale witness suppressed a needed label"
        ref = reference_tol(g, lab.order)
        assert lab.snapshot() == ref.snapshot()


class TestCutOffTriggers:
    """The cut-off may skip a label set only when nothing it derives from
    changed.  Minimal graphs for the rules of ``delete_vertex`` that do
    not follow from the purge: the lost-witness rules (c) and (c′), where
    no neighbour's label changes either, and the propagation rules (b)
    and (b′).  Each test fails when its rule is removed.
    """

    #: Order of the lost-witness graphs.
    ORDER = ["x", "w", "v", "z", "u"]

    def test_lost_witness_rebuilds_lin(self):
        # Rule (c).  x ∈ Lin(u) covers w, but w reaches x only through v;
        # after the delete w reaches u only via z, so w joins Lin(u).
        g = DiGraph(edges=[
            ("w", "v"), ("v", "x"), ("x", "u"), ("w", "z"), ("z", "u"),
        ])
        lab = butterfly_build(g, LevelOrder(self.ORDER))
        assert "w" not in lab.label_in["u"]
        delete_vertex(g, lab, "v")
        assert "w" in lab.label_in["u"]
        assert lab.snapshot() == reference_tol(g, lab.order).snapshot()

    def test_dropped_ancestor_rebuilds_lout(self):
        # Rule (c′), the mirror: every edge reversed.  x ∈ Lout(u) covers
        # w; step 2 drops x from Lin(w), and w must join Lout(u).
        g = DiGraph(edges=[
            ("v", "w"), ("x", "v"), ("u", "x"), ("z", "w"), ("u", "z"),
        ])
        lab = butterfly_build(g, LevelOrder(self.ORDER))
        assert "w" not in lab.label_out["u"]
        delete_vertex(g, lab, "v")
        assert "w" in lab.label_out["u"]
        assert lab.snapshot() == reference_tol(g, lab.order).snapshot()

    @pytest.mark.parametrize("edges, lost", [
        # Rule (b′): Lout(1) loses 2, so Lout(0) must be rebuilt too.
        ([(0, 1), (1, 3), (3, 2)], (0, 2)),
        # Rule (b), the mirror: Lin(1) loses 2, so must Lin(0).
        ([(2, 3), (3, 1), (1, 0)], (2, 0)),
    ])
    def test_changed_neighbour_propagates(self, edges, lost):
        # Order 2 > 0 > 3 > 1.  Deleting 3 cuts the chain below the top
        # vertex 2; only v's neighbour 1 sees the purge, and the loss
        # must travel one edge further.
        g = DiGraph(edges=edges)
        lab = butterfly_build(g, LevelOrder([2, 0, 3, 1]))
        delete_vertex(g, lab, 3)
        assert not lab.query(*lost)
        assert lab.snapshot() == reference_tol(g, lab.order).snapshot()

    def test_span_counts_rebuilds(self):
        g = DiGraph(edges=[
            ("w", "v"), ("v", "x"), ("x", "u"), ("w", "z"), ("z", "u"),
        ])
        lab = butterfly_build(g, LevelOrder(self.ORDER))
        with trace.capture() as reg:
            delete_vertex(g, lab, "v")
        stats = reg.snapshot()["stats"]
        # B+(v) = {x, u}: x as v's out-neighbour, u by rule (c); B-(v) =
        # {w}: v's in-neighbour.  Only Lin(u) and Lout(w) change.
        assert stats["span.tol.delete.rebuilt_in"]["max"] == 2
        assert stats["span.tol.delete.rebuilt_out"]["max"] == 1
        assert stats["span.tol.delete.labels_changed"]["max"] == 2
