"""Reproduction of the paper's running example (Figure 1 / Table 2).

The paper does not print Figure 1's edge list; ``FIGURE1_EDGES`` is the
reconstruction under which the TOL index for the level order
``l1 = a < b < c < d < e < f < g < h`` matches the printed L1 column
*exactly*.  The L2 column of Table 2 contains a typo — ``c`` appears in
``Lout(a)`` and ``Lout(e)`` although the paths a -> g -> c and
e -> a -> g -> c run through ``g``, whose level (1) is above ``c``'s (2),
violating the Path Constraint (and Lemma 2 minimality: ``g`` already
witnesses those queries).  The L2 tests below therefore check the printed
table *except* for those two cells, and assert our construction agrees
with the Definition-1 reference everywhere.
"""

import pytest

from repro.core.butterfly import butterfly_build
from repro.core.labeling import TOLLabeling
from repro.core.order import LevelOrder
from repro.core.reference import reference_tol
from repro.core.validation import assert_queries_correct, assert_valid_tol
from repro.graph.generators import figure1_dag

L1_ORDER = list("abcdefgh")

#: Table 2, left half (level order l1): v -> (Lin, Lout).
TABLE2_L1 = {
    "a": (set(), set()),
    "b": ({"a"}, set()),
    "c": ({"a", "b"}, set()),
    "d": ({"a"}, {"c"}),
    "e": (set(), {"a"}),
    "f": ({"a", "b", "d"}, {"c"}),
    "g": ({"a"}, {"c"}),
    "h": ({"a"}, {"b"}),
}

L2_ORDER = list("gcfbdhae")  # l2: g=1, c=2, f=3, b=4, d=5, h=6, a=7, e=8

#: Table 2, right half, with the two typo cells corrected (see module doc).
TABLE2_L2_CORRECTED = {
    "a": (set(), {"b", "d", "f", "g", "h"}),  # paper adds a spurious "c"
    "b": (set(), {"c", "f"}),
    "c": ({"g"}, set()),
    "d": (set(), {"c", "f"}),
    "e": (set(), {"a", "b", "d", "f", "g", "h"}),  # paper adds a spurious "c"
    "f": (set(), {"c"}),
    "g": (set(), set()),
    "h": (set(), {"b", "c", "f"}),
}


@pytest.fixture
def g():
    return figure1_dag()


def as_expected(labeling: TOLLabeling, table) -> None:
    for v, (lin, lout) in table.items():
        assert labeling.label_in[v] == lin, f"Lin({v})"
        assert labeling.label_out[v] == lout, f"Lout({v})"


class TestL1:
    def test_butterfly_matches_table(self, g):
        lab = butterfly_build(g, LevelOrder(L1_ORDER))
        as_expected(lab, TABLE2_L1)

    def test_reference_matches_table(self, g):
        lab = reference_tol(g, LevelOrder(L1_ORDER))
        as_expected(lab, TABLE2_L1)

    def test_index_size_matches_table(self, g):
        lab = butterfly_build(g, LevelOrder(L1_ORDER))
        expected = sum(len(a) + len(b) for a, b in TABLE2_L1.values())
        assert lab.size() == expected == 14

    def test_queries(self, g):
        lab = butterfly_build(g, LevelOrder(L1_ORDER))
        assert_queries_correct(g, lab)

    def test_example1_narrative(self, g):
        """Example 1's prose: Lin(g) = {a} and only one simple path a -> g."""
        lab = butterfly_build(g, LevelOrder(L1_ORDER))
        assert lab.label_in["g"] == {"a"}
        assert g.in_neighbors("g") == frozenset({"a"})


class TestL2:
    def test_butterfly_matches_corrected_table(self, g):
        lab = butterfly_build(g, LevelOrder(L2_ORDER))
        as_expected(lab, TABLE2_L2_CORRECTED)

    def test_paper_l2_cells_violate_minimality(self, g):
        """The printed L2 'c' entries are redundant: g already witnesses."""
        lab = butterfly_build(g, LevelOrder(L2_ORDER))
        # Query a -> c and e -> c succeed without c in any out-label set.
        assert lab.query("a", "c")
        assert lab.query("e", "c")
        assert "c" not in lab.label_out["a"]
        assert "c" not in lab.label_out["e"]
        assert lab.witness("a", "c") == "g"

    def test_example1_narrative_g_empty(self, g):
        """Example 1: g has the top level in l2, so Lin(g) must be empty."""
        lab = butterfly_build(g, LevelOrder(L2_ORDER))
        assert lab.label_in["g"] == set()

    def test_valid_and_correct(self, g):
        lab = butterfly_build(g, LevelOrder(L2_ORDER))
        assert_valid_tol(g, lab)
        assert_queries_correct(g, lab)


class TestLemma2Minimality:
    """Removing any label breaks exactly its own query (Lemma 2)."""

    @pytest.mark.parametrize("order_seq", [L1_ORDER, L2_ORDER])
    def test_every_label_is_load_bearing(self, g, order_seq):
        base = butterfly_build(g, LevelOrder(order_seq))
        for v in list(base.vertices()):
            for u in list(base.label_in[v]):
                base.remove_in_id(base.id_of(v), base.id_of(u))
                assert not base.query(u, v), f"removing {u} from Lin({v})"
                base.add_in_label(v, u)
            for u in list(base.label_out[v]):
                base.remove_out_id(base.id_of(v), base.id_of(u))
                assert not base.query(v, u), f"removing {u} from Lout({v})"
                base.add_out_label(v, u)
