"""Differential tests of the Equation-1 query kernel over the label arrays.

Every query surface funnels into one kernel, ``labeling.witness_id``:
the live ``TOLLabeling.query``/``query_many``/``witness`` over the
label arrays, ``ReachabilityIndex.query_many`` (one component mapping
pass, one ``query_many`` call), the service's batch path (one
``query_many`` call for the cache misses), and ``freeze(tol)`` and a
reader's snapshot unpacked from ``pack_snapshot`` bytes over slices of
their packed buffers.  Generated traces of vertex and edge inserts and
deletes drive all of them (free and recycled ids included), and after
every step each must agree with BFS on every pair, and every surface's
witness of each component pair must be the same vertex: ``None`` iff
the pair is unreachable, otherwise one on an ``s ⇝ w ⇝ t`` path.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.trace import generate_trace
from repro.core.frozen import freeze
from repro.core.index import ReachabilityIndex
from repro.core.ops import UpdateOp
from repro.core.serialize import pack_snapshot, unpack_snapshot
from repro.errors import VertexNotFoundError
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.graph.traversal import forward_reachable
from repro.service.server import ReachabilityService


def bfs_truth(graph, pairs):
    reach = {
        v: forward_reachable(graph, v, include_source=True)
        for v in graph.vertices()
    }
    return [t in reach[s] for s, t in pairs]


def check_all_pairs(model, index, service):
    """Every query surface agrees with BFS on every pair of *model*."""
    verts = sorted(model.vertices(), key=repr)
    pairs = [(s, t) for s in verts for t in verts]
    truth = bfs_truth(model, pairs)
    component_of = index.condensation.component_of
    components = [(component_of[s], component_of[t]) for s, t in pairs]
    labeling = index.tol.labeling
    frozen = freeze(index.tol, edges=False)
    assert [labeling.query(cs, ct) for cs, ct in components] == truth
    assert labeling.query_many(components) == truth
    assert [frozen.query(cs, ct) for cs, ct in components] == truth
    # A reader's snapshot: memoryview buffers over the packed bytes.
    reader, reader_components, _ = unpack_snapshot(
        pack_snapshot(frozen, component_of, {})
    )
    assert [
        reader.query(reader_components[s], reader_components[t])
        for s, t in pairs
    ] == truth
    assert index.query_many(pairs) == truth
    assert service.query_batch(pairs) == truth
    dag = index.tol.graph_copy()
    reach = {c: forward_reachable(dag, c, include_source=True) for c in dag}
    for cs in dag:
        for ct in dag:
            w = index.tol.witness(cs, ct)
            assert frozen.witness(cs, ct) == w == reader.witness(cs, ct)
            if ct in reach[cs]:
                assert w in reach[cs] and ct in reach[w], (cs, w, ct)
            else:
                assert w is None, (cs, w, ct)
    return components


def apply_to_all(op, model, index, service):
    """Apply one :class:`UpdateOp` to the model, the index and the service."""
    op.apply(index)
    service.apply(op)
    if op.kind == "insert_vertex":
        model.add_vertex(op.vertex)
        for u in op.ins:
            model.add_edge(u, op.vertex)
        for w in op.outs:
            model.add_edge_if_absent(op.vertex, w)
    elif op.kind == "delete_vertex":
        model.remove_vertex(op.vertex)
    elif op.kind == "insert_edge":
        model.add_edge(op.tail, op.head)
    else:
        model.remove_edge(op.tail, op.head)


def draw_op(model, kind, pick, seed, fresh):
    """Turn one drawn ``(kind, pick, seed)`` into a valid op, or ``None``."""
    verts = sorted(model.vertices(), key=repr)
    if kind == "addv" or not verts:
        rng = random.Random(seed)
        ins = tuple(v for v in verts if rng.random() < 0.3)
        outs = tuple(v for v in verts if v not in ins and rng.random() < 0.3)
        return UpdateOp.insert_vertex(fresh, ins, outs)
    if kind == "delv":
        if len(verts) < 2:
            return None
        return UpdateOp.delete_vertex(verts[pick % len(verts)])
    if kind == "adde":
        candidates = [
            (a, b) for a in verts for b in verts
            if a != b and not model.has_edge(a, b)
        ]
        if not candidates:
            return None
        return UpdateOp.insert_edge(*candidates[pick % len(candidates)])
    edges = sorted(model.edges(), key=repr)
    if not edges:
        return None
    return UpdateOp.delete_edge(*edges[pick % len(edges)])


STEPS = st.lists(
    st.tuples(
        st.sampled_from(["addv", "delv", "adde", "dele"]),
        st.integers(0, 2**16),
        st.integers(0, 2**16),
    ),
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), steps=STEPS)
def test_every_surface_matches_bfs_after_every_step(seed, steps):
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    model = DiGraph(vertices=range(n))
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.25:
                model.add_edge_if_absent(i, j)
    index = ReachabilityIndex(model)
    service = ReachabilityService(model.copy(), cache_size=16)
    check_all_pairs(model, index, service)
    fresh = n
    for kind, pick, op_seed in steps:
        op = draw_op(model, kind, pick, op_seed, fresh)
        if op is None:
            continue
        if op.kind == "insert_vertex":
            fresh += 1
        apply_to_all(op, model, index, service)
        check_all_pairs(model, index, service)


def kernel_cases(labeling, components):
    """The branches of the kernel that *components* exercise."""
    cases = set()
    for cs, ct in components:
        if cs == ct:
            cases.add("same component")
            continue
        sid = labeling.id_of(cs)
        tid = labeling.id_of(ct)
        out_s = labeling.out_ids[sid]
        in_t = labeling.in_ids[tid]
        if len(out_s) > len(in_t):
            cases.add("Lout(s) longer")
        elif len(out_s) < len(in_t):
            cases.add("Lin(t) longer")
        if not out_s or not in_t:
            cases.add("empty side")
        if tid in out_s:
            cases.add("t in Lout(s)")
        if sid in in_t:
            cases.add("s in Lin(t)")
        if set(out_s) & set(in_t):
            cases.add("common label")
    return cases


def test_replayed_trace_covers_every_kernel_case():
    model = random_dag(30, 70, seed=5)
    for tail, head in [(4, 9), (9, 4), (15, 22), (22, 27), (27, 15)]:
        model.add_edge_if_absent(tail, head)
    index = ReachabilityIndex(model)
    service = ReachabilityService(model.copy(), cache_size=64)
    trace = generate_trace(model, 40, seed=5, query_fraction=0.0)
    cases = kernel_cases(index.tol.labeling, check_all_pairs(model, index, service))
    free_ids = recycled = False
    for trace_op in trace:
        if trace_op.kind == "addv":
            op = UpdateOp.insert_vertex(trace_op.vertex, trace_op.ins, trace_op.outs)
        elif trace_op.kind == "delv":
            op = UpdateOp.delete_vertex(trace_op.vertex)
        elif trace_op.kind == "adde":
            op = UpdateOp.insert_edge(trace_op.tail, trace_op.head)
        else:
            op = UpdateOp.delete_edge(trace_op.tail, trace_op.head)
        free_before = index.tol.labeling.interner.free_count
        apply_to_all(op, model, index, service)
        free_after = index.tol.labeling.interner.free_count
        free_ids |= free_after > 0
        recycled |= free_after < free_before
        components = check_all_pairs(model, index, service)
        cases |= kernel_cases(index.tol.labeling, components)
    # The packed snapshots checked above held free and recycled ids.
    assert free_ids and recycled
    assert cases == {
        "same component",
        "Lout(s) longer",
        "Lin(t) longer",
        "empty side",
        "t in Lout(s)",
        "s in Lin(t)",
        "common label",
    }


class TestUnknownEndpoint:
    def test_index_batch_raises(self):
        index = ReachabilityIndex(random_dag(10, 20, seed=1))
        with pytest.raises(VertexNotFoundError):
            index.query_many([(0, 1), (2, "missing")])

    def test_service_batch_raises_and_caches_nothing(self):
        service = ReachabilityService(random_dag(10, 20, seed=1), cache_size=16)
        with pytest.raises(VertexNotFoundError):
            service.query_batch([(0, 1), (1, 2), ("missing", 3)])
        assert len(service.cache) == 0
        assert service.query_batch([(0, 1)]) == [service.query(0, 1)]
        assert len(service.cache) == 1
