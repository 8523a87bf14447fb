"""Tests for the update-trace format and replayer."""

import pytest

from repro.bench.trace import (
    TraceOp,
    format_trace,
    generate_trace,
    parse_trace,
    read_trace,
    replay_trace,
    write_trace,
)
from repro.core.index import ReachabilityIndex
from repro.baselines.dagger import DaggerIndex
from repro.baselines.search import BFSBaseline
from repro.errors import WorkloadError
from repro.graph.dag import is_dag
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.graph.traversal import bidirectional_reachable


SAMPLE = """\
# tol-trace v1
addv 17 in=3,5 out=9
adde 2 9
query 3 9
delv 5
dele 2 9
"""


class TestParseFormat:
    def test_parse_sample(self):
        trace = parse_trace(SAMPLE)
        assert len(trace) == 5
        assert trace.ops[0] == TraceOp("addv", vertex=17, ins=(3, 5), outs=(9,))
        assert trace.ops[2] == TraceOp("query", tail=3, head=9)
        assert trace.counts()["adde"] == 1

    def test_round_trip(self):
        trace = parse_trace(SAMPLE)
        assert parse_trace(format_trace(trace)).ops == trace.ops

    def test_string_vertices(self):
        trace = parse_trace("addv alice out=bob\n")
        assert trace.ops[0].vertex == "alice"
        assert trace.ops[0].outs == ("bob",)

    def test_unknown_op_rejected(self):
        with pytest.raises(WorkloadError):
            parse_trace("frobnicate 1 2\n")

    def test_missing_args_rejected(self):
        with pytest.raises(WorkloadError):
            parse_trace("adde 1\n")

    def test_bad_addv_argument_rejected(self):
        with pytest.raises(WorkloadError):
            parse_trace("addv 1 sideways=2\n")

    def test_file_round_trip(self, tmp_path):
        trace = parse_trace(SAMPLE)
        path = tmp_path / "ops.trace"
        write_trace(trace, path)
        assert read_trace(path).ops == trace.ops


class TestGenerate:
    def test_counts_and_determinism(self):
        g = random_dag(15, 40, seed=0)
        a = generate_trace(g, 60, seed=1)
        b = generate_trace(g, 60, seed=1)
        assert len(a) == 60
        assert a.ops == b.ops
        counts = a.counts()
        assert counts["query"] > 0
        assert sum(counts.values()) == 60

    def test_vertex_namespace(self):
        g = random_dag(5, 5, seed=2)
        trace = generate_trace(g, 40, seed=3, vertex_namespace="new-")
        added = [op.vertex for op in trace if op.kind == "addv"]
        assert added and all(str(v).startswith("new-") for v in added)

    def test_invalid_query_fraction(self):
        with pytest.raises(WorkloadError):
            generate_trace(DiGraph(vertices=[1]), 5, query_fraction=2.0)

    @pytest.mark.parametrize("cyclic", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_acyclic_draws_match_bfs_filter(self, cyclic, seed):
        g = random_dag(25, 60, seed=seed)
        if cyclic:
            for tail, head in [(3, 7), (7, 3), (12, 20), (20, 24), (24, 12)]:
                g.add_edge_if_absent(tail, head)
            assert not is_dag(g)
        got = generate_trace(g, 80, seed=seed, query_fraction=0.3, acyclic=True)
        want = _bfs_filtered_trace(g, 80, seed=seed, query_fraction=0.3)
        assert got.counts()["adde"] > 0
        assert got.ops == want


def _bfs_filtered_trace(graph, num_ops, *, seed, query_fraction):
    """``generate_trace(..., acyclic=True)`` with a BFS per edge candidate.

    The oracle for the closure-based filter: the same draws from the same
    RNG, each ``adde`` candidate kept iff its head does not reach its tail.
    """
    import random

    rng = random.Random(seed)
    live = graph.copy()
    ops = []
    fresh = 0
    while len(ops) < num_ops:
        vertices = list(live.vertices())
        if rng.random() < query_fraction and vertices:
            s, t = rng.choice(vertices), rng.choice(vertices)
            ops.append(TraceOp("query", tail=s, head=t))
            continue
        roll = rng.random()
        if roll < 0.25 or not vertices:
            name = f"t{fresh}"
            fresh += 1
            p = 2.0 / max(len(vertices), 1)
            ins = tuple(v for v in vertices if rng.random() < p)
            outs = tuple(v for v in vertices if v not in ins and rng.random() < p)
            if ins and outs:
                outs = tuple(
                    w for w in outs
                    if not any(bidirectional_reachable(live, w, u) for u in ins)
                )
            live.add_vertex(name)
            for u in ins:
                live.add_edge(u, name)
            for w in outs:
                live.add_edge(name, w)
            ops.append(TraceOp("addv", vertex=name, ins=ins, outs=outs))
        elif roll < 0.5 and len(vertices) > 1:
            victim = rng.choice(vertices)
            live.remove_vertex(victim)
            ops.append(TraceOp("delv", vertex=victim))
        elif roll < 0.75:
            candidates = [
                (a, b) for a in vertices for b in vertices
                if a != b and not live.has_edge(a, b)
                and not bidirectional_reachable(live, b, a)
            ]
            if not candidates:
                continue
            tail, head = rng.choice(candidates)
            live.add_edge(tail, head)
            ops.append(TraceOp("adde", tail=tail, head=head))
        else:
            edges = list(live.edges())
            if not edges:
                continue
            tail, head = rng.choice(edges)
            live.remove_edge(tail, head)
            ops.append(TraceOp("dele", tail=tail, head=head))
    return ops


class TestReplay:
    def test_replay_matches_ground_truth(self):
        g = random_dag(12, 30, seed=4)
        trace = generate_trace(g, 80, seed=5)
        index = ReachabilityIndex(g)
        report = replay_trace(index, trace)
        # Recompute expected answers by replaying on a plain graph.
        live = g.copy()
        expected = []
        for op in trace:
            if op.kind == "addv":
                live.add_vertex(op.vertex)
                for u in op.ins:
                    live.add_edge(u, op.vertex)
                for w in op.outs:
                    live.add_edge(op.vertex, w)
            elif op.kind == "delv":
                live.remove_vertex(op.vertex)
            elif op.kind == "adde":
                live.add_edge(op.tail, op.head)
            elif op.kind == "dele":
                live.remove_edge(op.tail, op.head)
            else:
                expected.append(bidirectional_reachable(live, op.tail, op.head))
        assert report.answers == expected
        assert report.operations == 80
        assert report.total_seconds > 0

    def test_replay_against_dagger(self):
        g = random_dag(10, 20, seed=6)
        trace = generate_trace(g, 50, seed=7)
        a = replay_trace(ReachabilityIndex(g), trace)
        b = replay_trace(DaggerIndex(g), trace)
        assert a.answers == b.answers

    def test_edge_ops_require_capable_index(self):
        class VertexOnlyIndex:
            def insert_vertex(self, v, ins=(), outs=()):
                pass

            def delete_vertex(self, v):
                pass

            def query(self, s, t):
                return False

        with pytest.raises(WorkloadError):
            replay_trace(VertexOnlyIndex(), parse_trace("adde 0 1\n"))
        with pytest.raises(WorkloadError):
            replay_trace(VertexOnlyIndex(), parse_trace("dele 0 1\n"))

    def test_bfs_baseline_handles_edge_ops(self):
        g = random_dag(8, 10, seed=8)
        trace = generate_trace(g, 40, seed=9)
        report = replay_trace(BFSBaseline(g), trace)
        truth = replay_trace(ReachabilityIndex(g), trace)
        assert report.answers == truth.answers

    def test_acyclic_trace_replays_on_dag_only_index(self):
        from repro.core.index import TOLIndex

        g = random_dag(10, 20, seed=10)
        trace = generate_trace(g, 60, seed=11, acyclic=True)

        class TolVertexEdgeAdapter:
            def __init__(self, graph):
                self.idx = TOLIndex.build(graph)

            def insert_vertex(self, v, ins=(), outs=()):
                self.idx.insert_vertex(v, ins, outs)

            def delete_vertex(self, v):
                self.idx.delete_vertex(v)

            def insert_edge(self, t, h):
                self.idx.insert_edge(t, h)

            def delete_edge(self, t, h):
                self.idx.delete_edge(t, h)

            def query(self, s, t):
                return self.idx.query(s, t)

        report = replay_trace(TolVertexEdgeAdapter(g), trace)
        truth = replay_trace(ReachabilityIndex(g), trace)
        assert report.answers == truth.answers
