"""Differential suite: the Butterfly build kernel ≡ Definition 1.

Butterfly's peeling sweeps run on flat CSR snapshot arrays, so this file
pins them to :func:`repro.core.reference.reference_tol` — the
Definition-1 labeling, derived from reachability sets rather than any
algorithm — on a spread of random DAGs.

Every case runs both ``prune`` variants (the pruned and verbatim
Algorithm-5 traversals must produce the identical minimal labeling) and
cycles through all named order strategies.  A final test covers the
interned-id tie-breaking contract of the order strategies (satellite of
the ``str(v)``-based ``_tie_key`` removal).
"""

import random

import pytest

from repro.core.butterfly import butterfly_build
from repro.core.order import LevelOrder
from repro.core.orders import ORDER_STRATEGIES, resolve_order_strategy
from repro.core.reference import reference_tol
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag

#: Deterministic (num_vertices, num_edges, seed) cases spanning sparse
#: chains to near-dense DAGs; ~50 cases paired with cycling strategies.
CASES = [
    (n, int(n * density), seed)
    for seed, n in enumerate(range(8, 58, 2))
    for density in (0.5, 2.0)
]

#: Strategy names to cycle through (exact-greedy is quadratic; it gets
#: the small half of the cases only via the cycling below).
STRATEGY_NAMES = [
    "butterfly-u",
    "butterfly-l",
    "topological",
    "reverse-topological",
    "degree",
    "hierarchical",
    "random",
    "exact-greedy",
]


def _case_id(case):
    n, m, seed = case
    return f"n{n}-m{m}-s{seed}"


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_engines_match_reference(case):
    n, m, seed = case
    graph = random_dag(n, m, seed=seed)
    name = STRATEGY_NAMES[seed % len(STRATEGY_NAMES)]
    if name == "exact-greedy" and n > 30:
        name = "butterfly-u"
    order = resolve_order_strategy(name)(graph)
    ref = reference_tol(graph, LevelOrder(list(order))).snapshot()
    for prune in (True, False):
        got = butterfly_build(graph, LevelOrder(list(order)), prune=prune)
        assert got.snapshot() == ref, (name, prune)
        got.check_invariants()


def test_engines_match_on_mixed_type_vertices():
    # Vertices whose types cannot be mutually ordered (the old
    # ``str(v)``-based tie key existed to make sorting them possible;
    # interned ids make it unnecessary).
    vertices = [3, "b", ("t", 1), None, frozenset([1]), "a", 7]
    graph = DiGraph(vertices=vertices)
    graph.add_edge(3, "b")
    graph.add_edge("b", ("t", 1))
    graph.add_edge(None, "b")
    graph.add_edge("a", 7)
    for name in STRATEGY_NAMES:
        order = resolve_order_strategy(name)(graph)
        ref = reference_tol(graph, LevelOrder(list(order))).snapshot()
        got = butterfly_build(graph, LevelOrder(list(order)))
        assert got.snapshot() == ref, name


class TestTieBreaking:
    """Order-strategy ties resolve by interned id == insertion order."""

    def test_edgeless_graph_keeps_insertion_order(self):
        # No edges: every score/degree ties, so the ranking must be the
        # insertion order itself for every score-ranked strategy.
        vertices = ["z", 3, ("t", 0), None, "a", 1]
        graph = DiGraph(vertices=vertices)
        for name in ("butterfly-u", "butterfly-l", "degree", "hierarchical"):
            order = resolve_order_strategy(name)(graph)
            assert list(order) == vertices, name

    def test_partial_ties_are_deterministic(self):
        # Two structurally identical components: their twin vertices tie
        # on every score; re-running and rebuilding must agree exactly.
        def build_graph():
            g = DiGraph()
            for prefix in ("p", "q"):
                for i in range(5):
                    g.add_vertex((prefix, i))
            for prefix in ("p", "q"):
                g.add_edge((prefix, 0), (prefix, 2))
                g.add_edge((prefix, 1), (prefix, 2))
                g.add_edge((prefix, 2), (prefix, 3))
                g.add_edge((prefix, 2), (prefix, 4))
            return g

        for name in sorted(set(ORDER_STRATEGIES)):
            strategy = ORDER_STRATEGIES[name]
            a = list(strategy(build_graph()))
            b = list(strategy(build_graph()))
            assert a == b, name
            # Ties between the p-twin and q-twin go to the p-twin
            # (inserted first => lower interned id).  random shuffles;
            # reverse-topological reverses the id tie-break by design.
            if name in ("random", "reverse-topological"):
                continue
            positions = {v: i for i, v in enumerate(a)}
            for i in range(5):
                assert positions[("p", i)] < positions[("q", i)], name

    def test_random_strategy_seeded(self):
        graph = random_dag(30, 60, seed=1)
        s = ORDER_STRATEGIES["random"]
        assert list(s(graph)) == list(s(graph))
        assert list(s(graph, seed=1)) != list(s(graph, seed=2))
