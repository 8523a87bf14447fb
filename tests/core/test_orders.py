"""Tests for level-order strategies and the Section-7.1 score functions."""

import pytest
from hypothesis import given

from repro.core.butterfly import butterfly_build
from repro.core.orders import (
    ORDER_STRATEGIES,
    butterfly_lower_order,
    butterfly_upper_order,
    degree_order_strategy,
    exact_greedy_order,
    exact_scores,
    hierarchical_order_strategy,
    lower_bound_scores,
    random_order_strategy,
    resolve_order_strategy,
    reverse_topological_order_strategy,
    score_function,
    topological_order_strategy,
    upper_bound_scores,
)
from repro.errors import GraphError
from repro.graph.dag import topological_rank
from repro.graph.digraph import DiGraph
from repro.graph.generators import figure1_dag, random_dag, random_layered_dag

from ..conftest import small_dags


class TestScoreFunction:
    def test_zero_case(self):
        assert score_function(0, 0) == 0.0

    def test_formula(self):
        # (3*4 + 3 + 4) / (3 + 4) = 19/7
        assert score_function(3, 4) == pytest.approx(19 / 7)

    def test_symmetric(self):
        assert score_function(2, 5) == score_function(5, 2)

    def test_one_sided(self):
        # (0 + 6 + 0) / 6 = 1: pure sources/sinks score exactly 1.
        assert score_function(6, 0) == pytest.approx(1.0)


class TestScores:
    def test_exact_scores_chain(self):
        g = DiGraph(edges=[(1, 2), (2, 3)])
        scores = exact_scores(g)
        assert scores[1] == (0, 2)
        assert scores[2] == (1, 1)
        assert scores[3] == (2, 0)

    def test_upper_bound_counts_paths(self):
        # Diamond: 1 -> 2 -> 4, 1 -> 3 -> 4.  Vertex 4's exact in-score is
        # 3 but S⊤ counts vertex 1 twice (once per path).
        g = DiGraph(edges=[(1, 2), (1, 3), (2, 4), (3, 4)])
        s = upper_bound_scores(g)
        assert s[4][0] == 4.0
        assert s[1][1] == 4.0

    def test_lower_bound_splits_mass(self):
        g = DiGraph(edges=[(1, 2), (1, 3), (2, 4), (3, 4)])
        s = lower_bound_scores(g)
        # 1's mass splits over its two out-neighbors: each contributes 1/2,
        # plus 1 each for 2 and 3 themselves: S⊥in(4) = 2·(0.5 + ... )
        assert s[4][0] == pytest.approx(3.0)

    @given(small_dags())
    def test_bounds_sandwich_exact(self, graph):
        exact = exact_scores(graph)
        upper = upper_bound_scores(graph)
        lower = lower_bound_scores(graph)
        for v in graph.vertices():
            assert lower[v][0] <= exact[v][0] + 1e-9
            assert lower[v][1] <= exact[v][1] + 1e-9
            assert upper[v][0] >= exact[v][0] - 1e-9
            assert upper[v][1] >= exact[v][1] - 1e-9


class TestStrategies:
    @pytest.mark.parametrize("name", sorted(set(ORDER_STRATEGIES)))
    def test_every_strategy_is_a_permutation(self, name):
        g = random_dag(15, 40, seed=1)
        order = resolve_order_strategy(name)(g)
        assert sorted(order, key=repr) == sorted(g.vertices(), key=repr)

    def test_unknown_strategy(self):
        with pytest.raises(GraphError) as excinfo:
            resolve_order_strategy("nope")
        # The error lists every valid name, so typos are self-correcting.
        for name in ORDER_STRATEGIES:
            assert name in str(excinfo.value)

    def test_non_string_non_callable_strategy(self):
        with pytest.raises(TypeError):
            resolve_order_strategy(42)

    def test_strategy_returning_a_list_is_rejected_at_build(self):
        from repro.core.index import ReachabilityIndex, TOLIndex

        g = random_dag(6, 8, seed=0)

        def as_list(graph):
            return list(butterfly_upper_order(graph))

        for build in (TOLIndex.build, ReachabilityIndex):
            with pytest.raises(TypeError, match="got list"):
                build(g, order=as_list)

    def test_facades_resolve_uniformly(self):
        from repro.core.index import ReachabilityIndex, TOLIndex

        g = random_dag(6, 8, seed=0)
        with pytest.raises(GraphError):
            TOLIndex.build(g, order="nope")
        with pytest.raises(GraphError):
            ReachabilityIndex(g, order="nope")
        with pytest.raises(TypeError):
            ReachabilityIndex(g, order=42)
        # Name and callable spellings build equivalent indices.
        a = TOLIndex.build(g, order="bu")
        b = ReachabilityIndex(g, order=butterfly_upper_order)
        for s in g.vertices():
            for t in g.vertices():
                assert a.query(s, t) == b.query(s, t), (s, t)

    def test_callable_passthrough(self):
        fn = resolve_order_strategy(topological_order_strategy)
        assert fn is topological_order_strategy

    def test_topological_strategy_matches_rank(self):
        g = random_dag(12, 30, seed=2)
        order = topological_order_strategy(g)
        rank = topological_rank(g)
        seq = list(order)
        assert all(rank[seq[i]] < rank[seq[i + 1]] for i in range(len(seq) - 1))

    def test_reverse_topological(self):
        g = DiGraph(edges=[(1, 2), (2, 3)])
        assert list(reverse_topological_order_strategy(g)) == [3, 2, 1]

    def test_degree_strategy_sorted(self):
        g = DiGraph(edges=[(1, 2), (1, 3), (1, 4), (2, 3)])
        order = degree_order_strategy(g)
        assert order.first() == 1  # degree 3

    def test_hierarchical_prefers_middle_hubs(self):
        # b has in-degree 2 and out-degree 2; a and c are one-sided.
        g = DiGraph(edges=[("a1", "b"), ("a2", "b"), ("b", "c1"), ("b", "c2")])
        assert hierarchical_order_strategy(g).first() == "b"

    def test_random_orders_differ_by_seed(self):
        g = random_dag(20, 0, seed=0)
        a = list(random_order_strategy(g, seed=1))
        b = list(random_order_strategy(g, seed=2))
        assert a != b

    def test_exact_greedy_on_figure1(self):
        g = figure1_dag()
        order = exact_greedy_order(g)
        # f(b) = f(h) = 2.2 tops Figure 1's scores; ties break to 'b'.
        assert order.first() == "b"

    def test_exact_greedy_removes_before_rescoring(self):
        # After the hub is removed the residual scores must be recomputed:
        # on a star through one cut vertex the remaining vertices all
        # score 0 and fall back to tie-break order.
        g = DiGraph(edges=[("s1", "hub"), ("s2", "hub"), ("hub", "t1"), ("hub", "t2")])
        order = exact_greedy_order(g)
        assert order.first() == "hub"
        assert list(order)[1:] == ["s1", "s2", "t1", "t2"]


class TestOrderQuality:
    """The paper's headline static claim: BU/BL beat DL/TF on index size."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bu_not_worse_than_tf_on_layered(self, seed):
        g = random_layered_dag(250, 4.0, seed=seed)
        size = {}
        for name, strat in [
            ("bu", butterfly_upper_order),
            ("tf", topological_order_strategy),
        ]:
            size[name] = butterfly_build(g, strat(g)).size()
        assert size["bu"] <= size["tf"]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bu_not_worse_than_random(self, seed):
        g = random_layered_dag(200, 3.0, seed=seed)
        bu = butterfly_build(g, butterfly_upper_order(g)).size()
        rnd = butterfly_build(g, random_order_strategy(g, seed=seed)).size()
        assert bu <= rnd

    def test_bl_produces_working_index(self):
        g = random_layered_dag(150, 3.0, seed=5)
        lab = butterfly_build(g, butterfly_lower_order(g))
        from repro.core.validation import assert_valid_tol

        assert_valid_tol(g, lab)
