"""Tests for the validation oracle itself (it must catch broken indices)."""

import pytest

from repro.core.butterfly import butterfly_build
from repro.core.order import LevelOrder
from repro.core.validation import (
    TOLViolation,
    assert_queries_correct,
    assert_valid_tol,
    find_violations,
)
from repro.graph.digraph import DiGraph


@pytest.fixture
def g():
    return DiGraph(edges=[(1, 2), (2, 3), (1, 3)])


@pytest.fixture
def lab(g):
    return butterfly_build(g, LevelOrder([1, 2, 3]))


class TestFindViolations:
    def test_clean_index(self, g, lab):
        assert find_violations(g, lab) == []

    def test_missing_label_detected(self, g, lab):
        lab.remove_in_id(lab.id_of(2), lab.id_of(1))
        problems = find_violations(g, lab)
        assert any("missing label" in p for p in problems)

    def test_extra_label_detected(self, g, lab):
        lab.add_out_label(3, 2)  # 3 cannot reach 2
        problems = find_violations(g, lab)
        assert any("extra label" in p for p in problems)

    def test_assert_raises_with_details(self, g, lab):
        lab.remove_in_id(lab.id_of(3), lab.id_of(2))
        with pytest.raises(TOLViolation, match="Lin"):
            assert_valid_tol(g, lab)

    def test_assert_passes_clean(self, g, lab):
        assert_valid_tol(g, lab)


class TestQueryOracle:
    def test_correct_index_passes(self, g, lab):
        assert_queries_correct(g, lab)

    def test_broken_query_detected(self, g, lab):
        lab.remove_in_id(lab.id_of(3), lab.id_of(2))
        # Now query(2, 3) has no witness though 2 -> 3.
        with pytest.raises(TOLViolation, match="query"):
            assert_queries_correct(g, lab)
