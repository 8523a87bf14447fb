"""The paper's formal claims, one test (or property test) per lemma.

Cross-cutting results are exercised throughout the suite; this module is
the explicit lemma-by-lemma index so each published claim has a named
test:

* **Lemma 1** — the witness-set query (Equation 1) is correct.
* **Lemma 2** — every TOL label is load-bearing (minimality).
* **Lemma 3** — insertion yields a TOL index and a size-minimal level.
* **Lemma 4** — deletion yields the TOL index of the reduced graph.
* **Lemma 5** — Butterfly (Algorithm 5) outputs the TOL index.
* **Section 7.1** — S⊥/S⊤ bound the exact scores from below/above.
* **Section 6** — a delete/re-insert round trip never grows the index.
"""

import random

import pytest
from hypothesis import given

from repro.core.butterfly import butterfly_build
from repro.core.deletion import delete_vertex
from repro.core.insertion import insert_vertex
from repro.core.order import LevelOrder
from repro.core.orders import exact_scores, lower_bound_scores, upper_bound_scores
from repro.core.reference import descendants_map, reference_tol

from ..conftest import dags_with_order, make_random_dag


@given(dags_with_order())
def test_lemma_1_query_correctness(pair):
    """W(s,t) ≠ ∅ iff s -> t, for every pair of every fuzzed index."""
    graph, order = pair
    lab = butterfly_build(graph, order)
    desc = descendants_map(graph)
    for s in graph.vertices():
        for t in graph.vertices():
            assert lab.query(s, t) == (s == t or t in desc[s])


@given(dags_with_order())
def test_lemma_2_minimality(pair):
    """Removing any label breaks exactly the query it witnesses."""
    graph, order = pair
    lab = butterfly_build(graph, order)
    for v in list(lab.vertices()):
        for u in list(lab.label_in[v]):
            lab.remove_in_id(lab.id_of(v), lab.id_of(u))
            assert not lab.query(u, v)
            lab.add_in_label(v, u)
        for u in list(lab.label_out[v]):
            lab.remove_out_id(lab.id_of(v), lab.id_of(u))
            assert not lab.query(v, u)
            lab.add_out_label(v, u)


@pytest.mark.parametrize("trial", range(15))
def test_lemma_3_insertion_validity_and_optimality(trial):
    """Insertion produces the Definition-1 index and the minimal size."""
    r = random.Random(7000 + trial)
    g = make_random_dag(3000 + trial, max_n=8)
    if g.num_vertices < 2:
        pytest.skip("too small")
    seq = list(g.vertices())
    r.shuffle(seq)
    v = r.choice(seq)
    sub = g.copy()
    sub.remove_vertex(v)
    base = [u for u in seq if u != v]

    lab = butterfly_build(sub, LevelOrder(base))
    insert_vertex(g, lab, v)
    assert lab.snapshot() == reference_tol(g, lab.order).snapshot()

    sizes = []
    for pos in ["bottom", *(("above", u) for u in base)]:
        lab2 = butterfly_build(sub, LevelOrder(base))
        insert_vertex(g, lab2, v, placement=pos)
        sizes.append(lab2.size())
    assert lab.size() == min(sizes)


@pytest.mark.parametrize("trial", range(15))
def test_lemma_4_deletion_validity(trial):
    """Deletion produces the Definition-1 index of the reduced graph."""
    r = random.Random(8000 + trial)
    g = make_random_dag(4000 + trial, max_n=10)
    if g.num_vertices < 2:
        pytest.skip("too small")
    seq = list(g.vertices())
    r.shuffle(seq)
    lab = butterfly_build(g, LevelOrder(seq))
    delete_vertex(g, lab, r.choice(seq))
    assert lab.snapshot() == reference_tol(g, lab.order).snapshot()


@given(dags_with_order())
def test_lemma_5_butterfly_is_the_tol_index(pair):
    """Algorithm 5's output equals the Definition-1 construction."""
    graph, order = pair
    got = butterfly_build(graph, LevelOrder(list(order)))
    assert got.snapshot() == reference_tol(graph, order).snapshot()


@given(dags_with_order())
def test_section_7_1_score_bounds(pair):
    """S⊥ ≤ exact ≤ S⊤ for in- and out-scores, everywhere."""
    graph, _ = pair
    exact = exact_scores(graph)
    upper = upper_bound_scores(graph)
    lower = lower_bound_scores(graph)
    for v in graph.vertices():
        for side in (0, 1):
            assert lower[v][side] <= exact[v][side] + 1e-9
            assert upper[v][side] >= exact[v][side] - 1e-9


@given(dags_with_order())
def test_section_6_round_trip_never_grows(pair):
    """Delete + optimally re-insert each vertex: |L| is non-increasing."""
    graph, order = pair
    live = graph.copy()
    lab = butterfly_build(live, order)
    for v in sorted(graph.vertices(), key=repr):
        before = lab.size()
        ins = live.in_neighbors(v)
        outs = live.out_neighbors(v)
        delete_vertex(live, lab, v)
        live.add_vertex(v)
        for u in ins:
            live.add_edge(u, v)
        for w in outs:
            live.add_edge(v, w)
        insert_vertex(live, lab, v)
        assert lab.size() <= before
