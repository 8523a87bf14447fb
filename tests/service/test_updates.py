"""Tests for UpdateOp, the one update representation."""

import pytest

from repro.bench.trace import TraceOp
from repro.core.index import ReachabilityIndex
from repro.errors import WorkloadError
from repro.graph.digraph import DiGraph
from repro.core.ops import UpdateOp


class TestUpdateOp:
    def test_constructors(self):
        op = UpdateOp.insert_vertex("v", ["a"], ["b"])
        assert (op.kind, op.vertex, op.ins, op.outs) == (
            "insert_vertex", "v", ("a",), ("b",)
        )
        assert UpdateOp.delete_vertex("v").kind == "delete_vertex"
        assert UpdateOp.insert_edge(1, 2).tail == 1
        assert UpdateOp.delete_edge(1, 2).head == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(WorkloadError):
            UpdateOp("query", tail=1, head=2)

    def test_legacy_short_kinds_normalize(self):
        # v1 encodings (WAL files, old wire clients) used trace-style
        # short kinds; constructing with one must yield the canonical op.
        assert UpdateOp("addv", vertex="v") == UpdateOp.insert_vertex("v")
        assert UpdateOp("delv", vertex="v").kind == "delete_vertex"
        assert UpdateOp("adde", tail=1, head=2) == UpdateOp.insert_edge(1, 2)
        assert UpdateOp("dele", tail=1, head=2).kind == "delete_edge"

    def test_from_trace_op(self):
        op = UpdateOp.from_trace_op(TraceOp("addv", vertex="x", ins=(1,)))
        assert op.kind == "insert_vertex" and op.ins == (1,)
        with pytest.raises(WorkloadError):
            UpdateOp.from_trace_op(TraceOp("query", tail=1, head=2))

    def test_apply_runs_the_right_method(self):
        idx = ReachabilityIndex(DiGraph(vertices=[1, 2]))
        UpdateOp.insert_edge(1, 2).apply(idx)
        assert idx.query(1, 2)
        UpdateOp.delete_edge(1, 2).apply(idx)
        assert not idx.query(1, 2)
        UpdateOp.insert_vertex(3, in_neighbors=[2]).apply(idx)
        assert idx.query(2, 3)
        UpdateOp.delete_vertex(3).apply(idx)
        assert 3 not in idx

