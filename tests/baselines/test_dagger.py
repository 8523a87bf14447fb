"""Tests for the Dagger dynamic interval index."""

import random


from repro.baselines.dagger import DaggerIndex
from repro.graph.digraph import DiGraph
from repro.graph.traversal import bidirectional_reachable


def assert_all_pairs(idx, graph):
    for s in graph.vertices():
        for t in graph.vertices():
            assert idx.query(s, t) == bidirectional_reachable(graph, s, t), (s, t)


class TestStatic:
    def test_dag(self):
        g = DiGraph(edges=[(1, 2), (2, 3), (1, 4)])
        idx = DaggerIndex(g)
        assert_all_pairs(idx, g)

    def test_cyclic(self):
        g = DiGraph(edges=[(1, 2), (2, 1), (2, 3)])
        idx = DaggerIndex(g)
        assert idx.query(1, 3)
        assert idx.query(2, 1)
        assert not idx.query(3, 1)

    def test_contains(self):
        idx = DaggerIndex(DiGraph(vertices=["v"]))
        assert "v" in idx and "w" not in idx

    def test_size_bytes(self):
        idx = DaggerIndex(DiGraph(vertices=range(8)), num_traversals=2)
        assert idx.size_bytes() == 8 * 2 * 8


class TestUpdates:
    def test_insert_chain_tail(self):
        idx = DaggerIndex(DiGraph(edges=[(1, 2)]))
        idx.insert_vertex(3, in_neighbors=[2])
        assert idx.query(1, 3)

    def test_insert_chain_head(self):
        idx = DaggerIndex(DiGraph(edges=[(1, 2)]))
        idx.insert_vertex(0, out_neighbors=[1])
        assert idx.query(0, 2)
        assert not idx.query(2, 0)

    def test_delete(self):
        idx = DaggerIndex(DiGraph(edges=[(1, 2), (2, 3)]))
        idx.delete_vertex(2)
        assert not idx.query(1, 3)

    def test_edge_merge_and_split(self):
        idx = DaggerIndex(DiGraph(edges=[(1, 2), (2, 3)]))
        idx.insert_edge(3, 1)
        assert idx.query(3, 2)
        idx.delete_edge(3, 1)
        assert not idx.query(3, 2)

    def test_intervals_stay_sound_as_they_loosen(self):
        """After heavy churn queries remain exact (just slower)."""
        r = random.Random(5)
        g = DiGraph(vertices=range(8))
        for i in range(8):
            for j in range(8):
                if i != j and r.random() < 0.2:
                    g.add_edge_if_absent(i, j)
        idx = DaggerIndex(g, seed=5)
        live = g.copy()
        nxt = 8
        for _ in range(25):
            roll = r.random()
            if roll < 0.3 and live.num_vertices > 1:
                v = r.choice(list(live.vertices()))
                live.remove_vertex(v)
                idx.delete_vertex(v)
            elif roll < 0.6:
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


    def test_condensation_stays_exact_under_updates(self):
        """Dagger writes the condensed DAG itself; after every op it must
        equal a from-scratch condensation, through merges and splits."""
        r = random.Random(17)
        g = DiGraph(vertices=range(10))
        for i in range(10):
            for j in range(10):
                if i != j and r.random() < 0.15:
                    g.add_edge(i, j)
        idx = DaggerIndex(g, seed=17)
        live = g.copy()
        nxt = 10
        for _ in range(60):
            roll = r.random()
            verts = sorted(live.vertices())
            if roll < 0.2 and len(verts) > 2:
                v = r.choice(verts)
                live.remove_vertex(v)
                idx.delete_vertex(v)
            elif roll < 0.5:
                a, b = r.choice(verts), r.choice(verts)
                if a == b or live.has_edge(a, b):
                    continue
                live.add_edge(a, b)
                idx.insert_edge(a, b)
            elif roll < 0.8:
                edges = sorted(live.edges())
                if not edges:
                    continue
                a, b = r.choice(edges)
                live.remove_edge(a, b)
                idx.delete_edge(a, b)
            else:
                ins = [x for x in verts if r.random() < 0.2]
                outs = [x for x in verts if r.random() < 0.2]
                live.add_vertex(nxt)
                for u in ins:
                    live.add_edge(u, nxt)
                for w in outs:
                    live.add_edge(nxt, w)
                idx.insert_vertex(nxt, ins, outs)
                nxt += 1
            idx._cond.check_invariants()
            assert_all_pairs(idx, live)


class TestDegradation:
    """The paper's core observation about Dagger: updates loosen intervals,
    so query pruning decays toward plain DFS."""

    def test_interval_quality_decays_after_churn(self):
        from repro.graph.generators import random_layered_dag

        g = random_layered_dag(300, 2.0, seed=9)
        fresh = DaggerIndex(g, seed=9)
        churned = DaggerIndex(g, seed=9)

        r = random.Random(9)
        victims = r.sample(list(g.vertices()), 60)
        adjacency = {}
        live = g.copy()
        for v in victims:
            adjacency[v] = (live.in_neighbors(v), live.out_neighbors(v))
            live.remove_vertex(v)
            churned.delete_vertex(v)
        for v in reversed(victims):
            ins = [u for u in adjacency[v][0] if u in live]
            outs = [w for w in adjacency[v][1] if w in live]
            churned.insert_vertex(v, ins, outs)
            live.add_vertex(v)
            for u in ins:
                live.add_edge(u, v)
            for w in outs:
                live.add_edge(v, w)

        def pruning_power(idx):
            rr = random.Random(1)
            vs = list(g.vertices())
            hits = 0
            total = 0
            for _ in range(400):
                s, t = rr.choice(vs), rr.choice(vs)
                cs, ct = idx._cond.component(s), idx._cond.component(t)
                if cs != ct and not bidirectional_reachable(g, s, t):
                    total += 1
                    if not idx._contains(cs, ct):
                        hits += 1
            return hits / max(total, 1)

        assert pruning_power(churned) <= pruning_power(fresh)
        assert_all_pairs(churned, g)
