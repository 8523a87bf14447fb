"""Property test of the service's one write path, ``apply_batch``.

Random batches of updates over small cyclic graphs drive a durable
:class:`ReachabilityService` and, op by op, a plain shadow graph.  Some
batches carry a dangling reference: a vertex that never existed, or one
deleted earlier in the same batch.  Such a batch must be rejected as a
whole, before anything is logged or applied.  Other batches may carry
ops the graph rejects one by one (an existing vertex or edge inserted, a
missing edge deleted); those are logged, change nothing, and must be
counted exactly as recovery counts the WAL records it skips.  Every
accepted batch must move the epoch by the ops it applied and leave the
service answering exactly like BFS over the shadow, the WAL must replay
into the served graph, and each WAL record must carry the trace id of
the batch that wrote it.
"""

import itertools
import tempfile

import pytest
from hypothesis import given, strategies as st

from repro.core.ops import UpdateOp
from repro.errors import UnknownVertexError
from repro.graph.digraph import DiGraph
from repro.graph.traversal import bidirectional_reachable
from repro.service.durability import DurabilityManager
from repro.service.server import ReachabilityService


@st.composite
def small_digraphs(draw, max_vertices: int = 6) -> DiGraph:
    """A small directed graph, cycles allowed, no self-loops."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    graph = DiGraph(vertices=range(n))
    for u in range(n):
        for w in range(n):
            if u != w and draw(st.integers(0, 3)) == 0:
                graph.add_edge(u, w)
    return graph


def draw_valid_op(data, work: DiGraph, fresh) -> UpdateOp:
    """An op that applies cleanly to *work*."""
    vs = sorted(work.vertices())
    absent = [(u, w) for u in vs for w in vs
              if u != w and not work.has_edge(u, w)]
    present = sorted(work.edges())
    kinds = ["insert_vertex"] + ["delete_vertex"] * bool(vs)
    kinds += ["insert_edge"] * bool(absent) + ["delete_edge"] * bool(present)
    kind = data.draw(st.sampled_from(kinds))
    if kind == "insert_vertex":
        some = st.lists(st.sampled_from(vs), max_size=2, unique=True) \
            if vs else st.just([])
        return UpdateOp.insert_vertex(
            next(fresh), data.draw(some), data.draw(some)
        )
    if kind == "delete_vertex":
        return UpdateOp.delete_vertex(data.draw(st.sampled_from(vs)))
    if kind == "insert_edge":
        return UpdateOp.insert_edge(*data.draw(st.sampled_from(absent)))
    return UpdateOp.delete_edge(*data.draw(st.sampled_from(present)))


def draw_dangling_op(data, work: DiGraph, deleted: list) -> UpdateOp:
    """An op naming a vertex *work* lacks: a ghost, or one the batch deleted."""
    missing = data.draw(st.sampled_from(["ghost", *deleted]))
    vs = sorted(work.vertices())
    kinds = ["delete_vertex", "insert_vertex"] + ["insert_edge"] * bool(vs)
    kind = data.draw(st.sampled_from(kinds))
    if kind == "delete_vertex":
        return UpdateOp.delete_vertex(missing)
    if kind == "insert_vertex":
        return UpdateOp.insert_vertex("orphan", in_neighbors=[missing])
    return UpdateOp.insert_edge(data.draw(st.sampled_from(vs)), missing)


def draw_rejected_op(data, work: DiGraph) -> UpdateOp:
    """An op naming only vertices of *work* that *work* nonetheless rejects.

    It inserts an existing vertex or edge, or deletes a missing edge
    (a self-loop among them: the drawn graphs have none).
    """
    vs = sorted(work.vertices())
    present = sorted(work.edges())
    absent = [(u, w) for u in vs for w in vs if not work.has_edge(u, w)]
    kinds = ["insert_existing_vertex", "delete_self_loop"]
    kinds += ["insert_existing_edge"] * bool(present)
    kinds += ["delete_missing_edge"] * bool(absent)
    kind = data.draw(st.sampled_from(kinds))
    if kind == "insert_existing_vertex":
        v = data.draw(st.sampled_from(vs))
        others = st.lists(st.sampled_from(vs), max_size=2, unique=True)
        return UpdateOp.insert_vertex(v, data.draw(others), data.draw(others))
    if kind == "delete_self_loop":
        v = data.draw(st.sampled_from(vs))
        return UpdateOp.delete_edge(v, v)
    if kind == "insert_existing_edge":
        return UpdateOp.insert_edge(*data.draw(st.sampled_from(present)))
    return UpdateOp.delete_edge(*data.draw(st.sampled_from(absent)))


def draw_batch(data, shadow: DiGraph, fresh):
    """``(ops, dangling, rejected, shadow after the batch)`` for one batch.

    *rejected* counts the ops the graph turns down one by one.
    """
    work = shadow.copy()
    size = data.draw(st.integers(1, 4))
    dangling_at = data.draw(st.one_of(st.none(), st.integers(0, size - 1)))
    ops, deleted, rejected = [], [], 0
    for i in range(size):
        if i == dangling_at:
            ops.append(draw_dangling_op(data, work, deleted))
            continue
        if work.num_vertices and data.draw(st.integers(0, 3)) == 0:
            ops.append(draw_rejected_op(data, work))
            rejected += 1
            continue
        op = draw_valid_op(data, work, fresh)
        op.apply_to_graph(work)
        if op.kind == "delete_vertex":
            deleted.append(op.vertex)
        ops.append(op)
    return ops, dangling_at is not None, rejected, work


def assert_answers_match_bfs(service, shadow: DiGraph) -> None:
    vs = sorted(shadow.vertices())
    pairs = [(s, t) for s in vs for t in vs]
    assert service.query_batch(pairs) == [
        bidirectional_reachable(shadow, s, t) for s, t in pairs
    ]


@given(graph=small_digraphs(), data=st.data())
def test_batches_are_all_or_nothing_and_recoverable(graph, data):
    shadow = graph.copy()
    fresh = itertools.count(100)
    logged = []  # (op, trace) of every accepted batch, in order
    with tempfile.TemporaryDirectory() as state:
        durability = DurabilityManager(
            state, fsync="never", checkpoint_every=0
        )
        service = ReachabilityService(graph, durability=durability)
        served = service._index.condensation.graph
        rejected_total = 0
        for number in range(data.draw(st.integers(1, 5))):
            ops, dangling, rejected, after = draw_batch(data, shadow, fresh)
            trace = data.draw(st.sampled_from([None, f"{number:016x}"]))
            epoch, seq = service.epoch, durability.wal.last_seq
            if dangling:
                with pytest.raises(UnknownVertexError):
                    service.apply_batch(ops, trace_id=trace)
                assert service.epoch == epoch
                assert durability.wal.last_seq == seq
                assert served == shadow
                continue
            applied = service.apply_batch(ops, trace_id=trace)
            assert applied == len(ops) - rejected
            assert service.epoch == epoch + applied
            rejected_total += rejected
            shadow = after
            logged += [(op, trace) for op in ops]
            assert served == shadow
            assert_answers_match_bfs(service, shadow)

        counters = service.registry.snapshot()["counters"]
        assert counters["service.updates_rejected"] == rejected_total
        records = durability.wal.records_with_traces()
        assert [(op, trace) for _, op, trace in records] == logged
        durability.close()

        recovered = ReachabilityService.recover(state, fsync="never")
        report = recovered.last_recovery
        assert report.skipped == rejected_total
        assert report.graph == served == shadow
        assert_answers_match_bfs(recovered, shadow)
        recovered.durability.close()
