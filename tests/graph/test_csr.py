"""CSRGraph snapshot: structure, determinism, and cache invalidation."""

import pytest

from repro.errors import NotADagError, UnknownVertexError
from repro.graph.csr import CSRGraph, csr_snapshot
from repro.graph.digraph import DiGraph
from repro.graph.generators import figure1_dag, random_dag


def _row(offsets, targets, i: int) -> list:
    return list(targets[offsets[i]:offsets[i + 1]])


def _assert_matches(graph: DiGraph, snap: CSRGraph) -> None:
    """The snapshot must mirror the graph's adjacency exactly."""
    snap.check_invariants()
    assert snap.num_vertices == graph.num_vertices
    assert snap.num_edges == graph.num_edges
    assert list(snap.vertices()) == list(graph.vertices())
    id_of = snap.interner.id_of
    for v in graph.vertices():
        i = id_of(v)
        assert _row(snap.out_offsets, snap.out_targets, i) == sorted(
            id_of(u) for u in graph.iter_out(v)
        )
        assert _row(snap.in_offsets, snap.in_targets, i) == sorted(
            id_of(u) for u in graph.iter_in(v)
        )


class TestStructure:
    def test_mirrors_figure1(self):
        graph = figure1_dag()
        _assert_matches(graph, csr_snapshot(graph))

    def test_mirrors_random_dag(self):
        graph = random_dag(200, 800, seed=3)
        _assert_matches(graph, csr_snapshot(graph))

    def test_empty_graph(self):
        snap = csr_snapshot(DiGraph())
        snap.check_invariants()
        assert snap.num_vertices == 0
        assert snap.num_edges == 0
        assert list(snap.vertices()) == []

    def test_ids_follow_insertion_order(self):
        graph = DiGraph(vertices=["c", "a", "b"])
        graph.add_edge("b", "a")
        snap = csr_snapshot(graph)
        assert [snap.interner.id_of(v) for v in ("c", "a", "b")] == [0, 1, 2]
        assert snap.interner.vertex_of(0) == "c"

    def test_rows_sorted_by_id(self):
        graph = DiGraph(edges=[("x", "c"), ("x", "a"), ("x", "b")])
        snap = csr_snapshot(graph)
        row = _row(snap.out_offsets, snap.out_targets, snap.interner.id_of("x"))
        assert row == sorted(row)

    def test_unknown_vertex(self):
        snap = csr_snapshot(DiGraph(vertices=[1]))
        assert snap.interner.get(99) is None
        assert 99 not in snap
        with pytest.raises(UnknownVertexError):
            snap.interner.id_of(99)

    def test_deterministic(self):
        graph = random_dag(100, 400, seed=5)
        a = csr_snapshot(graph)
        b = csr_snapshot(graph)
        assert a.out_targets == b.out_targets
        assert a.in_targets == b.in_targets
        assert list(a.out_offsets) == list(b.out_offsets)


class TestTopologicalIds:
    def test_valid_and_deterministic(self):
        graph = random_dag(150, 500, seed=7)
        snap = graph.csr()
        topo = list(snap.topological_ids())
        assert sorted(topo) == list(range(snap.num_vertices))
        position = {v: k for k, v in enumerate(topo)}
        for i in range(snap.num_vertices):
            for u in _row(snap.out_offsets, snap.out_targets, i):
                assert position[i] < position[u]
        assert topo == list(csr_snapshot(graph).topological_ids())

    def test_cached(self):
        snap = figure1_dag().csr()
        assert snap.topological_ids() is snap.topological_ids()

    def test_cycle_rejected(self):
        graph = DiGraph(edges=[(1, 2), (2, 3), (3, 1)])
        with pytest.raises(NotADagError):
            graph.csr().topological_ids()


class TestCache:
    def test_hit_while_unchanged(self):
        graph = figure1_dag()
        assert graph.csr() is graph.csr()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_vertex("zz"),
            lambda g: g.add_edge("zz1", "zz2"),
            lambda g: g.remove_edge("a", "b"),
            lambda g: g.remove_vertex("a"),
            lambda g: g.clear(),
        ],
        ids=["add_vertex", "add_edge", "remove_edge", "remove_vertex", "clear"],
    )
    def test_invalidated_by_mutation(self, mutate):
        graph = figure1_dag()
        before = graph.csr()
        version = graph.version
        mutate(graph)
        assert graph.version > version
        after = graph.csr()
        assert after is not before
        _assert_matches(graph, after)

    def test_noop_mutations_keep_cache(self):
        graph = figure1_dag()
        snap = graph.csr()
        graph.add_vertex_if_absent("a")  # already present: no-op
        assert graph.csr() is snap

    def test_snapshot_survives_source_mutation(self):
        # The snapshot is immutable: it keeps describing the old state.
        graph = DiGraph(edges=[(1, 2)])
        snap = graph.csr()
        graph.add_edge(2, 3)
        assert snap.num_edges == 1
        assert 3 not in snap
        assert graph.csr().num_edges == 2

    def test_copy_does_not_share_cache(self):
        graph = figure1_dag()
        snap = graph.csr()
        clone = graph.copy()
        assert clone.csr() is not snap
        _assert_matches(clone, clone.csr())

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_vertex("zz"),
            lambda g: g.add_edge("zz1", "zz2"),
            lambda g: g.discard_edge("a", "b"),
            lambda g: g.discard_vertex("a"),
        ],
        ids=["add_vertex", "add_edge", "discard_edge", "discard_vertex"],
    )
    def test_mutation_releases_the_snapshot(self, mutate):
        graph = figure1_dag()
        graph.csr()
        mutate(graph)
        assert graph._csr_cache is None

    def test_build_packs_once_and_leaves_no_snapshot(self, monkeypatch):
        import repro.graph.csr as csr_module
        from repro.core.index import ReachabilityIndex, TOLIndex

        packed = []
        real = csr_module.csr_snapshot

        def counting(graph):
            packed.append(graph)
            return real(graph)

        monkeypatch.setattr(csr_module, "csr_snapshot", counting)
        index = ReachabilityIndex(random_dag(60, 200, seed=4))
        tol = TOLIndex.build(figure1_dag(), order="butterfly-u")
        # The order strategy and Butterfly share one pack per build ...
        assert packed == [index.condensation.dag, tol._graph]
        # ... and no graph keeps it once the build is done.
        for graph in (index.condensation.graph, index.condensation.dag,
                      tol._graph):
            assert graph._csr_cache is None


class TestInternDense:
    def test_assigns_consecutive_ids(self):
        from repro.core.intern import VertexInterner

        interner = VertexInterner()
        assert interner.intern("x") == 0
        assert interner.intern_dense(["a", "b", "c"]) == 3
        assert [interner.id_of(v) for v in ("a", "b", "c")] == [1, 2, 3]
        interner.check_invariants()

    def test_duplicate_rolls_back(self):
        from repro.core.intern import VertexInterner

        interner = VertexInterner()
        interner.intern("x")
        with pytest.raises(ValueError):
            interner.intern_dense(["a", "b", "a"])
        with pytest.raises(ValueError):
            interner.intern_dense(["y", "x"])  # already interned
        assert len(interner) == 1
        assert interner.capacity == 1
        interner.check_invariants()

    def test_rejects_free_list(self):
        from repro.core.intern import VertexInterner

        interner = VertexInterner()
        interner.intern("x")
        interner.release("x")
        with pytest.raises(ValueError):
            interner.intern_dense(["a"])
