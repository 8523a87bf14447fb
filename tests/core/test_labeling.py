"""Unit tests for the TOLLabeling data structure."""

from array import array

import pytest
from hypothesis import given, strategies as st

from repro.core.labeling import TOLLabeling, common_ids
from repro.core.order import LevelOrder
from repro.errors import IndexStateError


@pytest.fixture
def lab():
    return TOLLabeling(LevelOrder([1, 2, 3, 4]))


class TestRegistry:
    def test_initial_vertices(self, lab):
        assert set(lab.vertices()) == {1, 2, 3, 4}
        assert lab.num_vertices == 4
        assert all(lab.label_in[v] == set() for v in lab.vertices())

    def test_add_vertex_requires_order_membership(self, lab):
        with pytest.raises(IndexStateError):
            lab.add_vertex(99)

    def test_add_vertex(self, lab):
        lab.order.insert_last(5)
        lab.add_vertex(5)
        assert 5 in lab

    def test_double_add_rejected(self, lab):
        with pytest.raises(IndexStateError):
            lab.add_vertex(1)

    def test_drop_vertex_strips_everywhere(self, lab):
        lab.add_in_label(3, 1)
        lab.add_out_label(3, 2)
        lab.add_in_label(4, 3)
        lab.drop_vertex(3)
        assert 3 not in lab
        assert lab.inv_in[1] == set()
        assert lab.inv_out[2] == set()
        assert lab.label_in[4] == set()
        lab.check_invariants()


class TestLabelMutation:
    def test_add_and_inverted(self, lab):
        lab.add_in_label(3, 1)
        assert 1 in lab.label_in[3]
        assert 3 in lab.inv_in[1]

    def test_remove(self, lab):
        lab.add_out_label(4, 2)
        lab.remove_out_id(lab.id_of(4), lab.id_of(2))
        assert lab.label_out[4] == set()
        assert lab.inv_out[2] == set()

    def test_discard(self, lab):
        lab.add_in_label(2, 1)
        assert lab.discard_in_id(lab.id_of(2), lab.id_of(1)) is True
        assert lab.discard_in_id(lab.id_of(2), lab.id_of(1)) is False
        assert lab.discard_out_id(lab.id_of(2), lab.id_of(1)) is False

    def test_clear(self, lab):
        lab.add_in_label(4, 1)
        lab.add_in_label(4, 2)
        lab.clear_in_ids(lab.id_of(4))
        assert lab.label_in[4] == set()
        assert lab.inv_in[1] == set()
        lab.check_invariants()

    def test_size(self, lab):
        assert lab.size() == 0
        lab.add_in_label(3, 1)
        lab.add_out_label(2, 1)
        assert lab.size() == 2
        assert lab.size_bytes() == 8
        assert lab.label_count(3) == 1


class TestHolderArrays:
    def test_holders_are_sorted_id_arrays(self, lab):
        for v in (4, 2, 3):
            lab.add_in_label(v, 1)
        held = lab.in_holders[lab.id_of(1)]
        assert type(held) is array and held.typecode == "i"
        assert list(held) == sorted(lab.id_of(v) for v in (2, 3, 4))
        lab.remove_in_id(lab.id_of(3), lab.id_of(1))
        assert list(held) == [lab.id_of(2), lab.id_of(4)]
        lab.check_invariants()

    def test_invariants_reject_a_set_holder(self, lab):
        lab.add_in_label(3, 1)
        i = lab.id_of(1)
        lab.in_holders[i] = set(lab.in_holders[i])
        with pytest.raises(AssertionError, match="sorted-unique"):
            lab.check_invariants()

    def test_invariants_reject_an_unsorted_holder(self, lab):
        lab.add_in_label(3, 1)
        lab.add_in_label(4, 1)
        lab.in_holders[lab.id_of(1)].reverse()
        with pytest.raises(AssertionError, match="sorted-unique"):
            lab.check_invariants()

    def test_invariants_reject_a_stray_holder(self, lab):
        lab.add_in_label(3, 1)
        lab.in_holders[lab.id_of(1)].append(lab.id_of(4))
        with pytest.raises(AssertionError):
            lab.check_invariants()


def _sorted_ids(max_size):
    return st.lists(
        st.integers(0, 400), max_size=max_size, unique=True
    ).map(lambda xs: array("i", sorted(xs)))


def _common(a, b):
    out = [0] * min(len(a), len(b))
    return out[:common_ids(a, b, out)]


class TestCommonIds:
    """``common_ids`` is the deletion prune's holder intersection."""

    @given(_sorted_ids(60), _sorted_ids(60))
    def test_matches_set_intersection(self, a, b):
        assert _common(a, b) == sorted(set(a) & set(b))

    @given(_sorted_ids(30))
    def test_equal_and_empty_sides(self, a):
        assert _common(a, array("i", a)) == list(a)
        assert _common(a, array("i")) == []
        assert _common(array("i"), a) == []

    @given(_sorted_ids(30), st.integers(1, 50))
    def test_range_disjoint(self, a, gap):
        b = array("i", [x + 401 + gap for x in a])
        assert _common(a, b) == []
        assert _common(b, a) == []

    @given(st.integers(-5, 20_005))
    def test_one_against_ten_thousand(self, x):
        big = array("i", range(0, 20_000, 2))
        one = array("i", [x])
        want = [x] if x in range(0, 20_000, 2) else []
        assert _common(one, big) == want
        assert _common(big, one) == want


class TestQuery:
    def test_reflexive(self, lab):
        assert lab.query(2, 2) is True

    def test_via_out_label(self, lab):
        lab.add_out_label(3, 2)  # 3 can reach 2
        assert lab.query(3, 2) is True

    def test_via_in_label(self, lab):
        lab.add_in_label(3, 2)  # 2 can reach 3
        assert lab.query(2, 3) is True

    def test_via_common_witness(self, lab):
        lab.add_out_label(3, 1)
        lab.add_in_label(4, 1)
        assert lab.query(3, 4) is True

    def test_negative(self, lab):
        assert lab.query(3, 4) is False

    def test_unknown_vertex_raises(self, lab):
        with pytest.raises(IndexStateError):
            lab.query(1, "ghost")
        with pytest.raises(IndexStateError):
            lab.query("ghost", "ghost")

    def test_witness(self, lab):
        lab.add_out_label(3, 1)
        lab.add_in_label(4, 1)
        assert lab.witness(3, 4) == 1
        assert lab.witness(2, 2) == 2
        assert lab.witness(2, 4) is None
        lab.add_out_label(3, 4)
        assert lab.witness(3, 4) == 4


class TestSnapshots:
    def test_snapshot_immutable_view(self, lab):
        lab.add_in_label(2, 1)
        snap = lab.snapshot()
        assert snap[2] == (frozenset({1}), frozenset())

    def test_equals_labels(self, lab):
        other = TOLLabeling(LevelOrder([1, 2, 3, 4]))
        assert lab.equals_labels(other)
        lab.add_in_label(2, 1)
        assert not lab.equals_labels(other)

    def test_repr(self, lab):
        assert "TOLLabeling" in repr(lab)
