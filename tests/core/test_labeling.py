"""Unit tests for the TOLLabeling data structure."""

import pytest

from repro.core.labeling import TOLLabeling
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
