"""Differential suite for the update kernels.

The Section-5 update algorithms (candidate generation, label spreading,
pruning, the Δk level sweep, relocation, and delete-repair) run on
preallocated scratch arrays.  This file pins them to the two ground
truths over random update traces, after *every* operation:

* :func:`repro.core.reference.reference_tol` — the Definition-1
  labeling derived from reachability sets, under the index's live level
  order, plus ``check_invariants()``;
* BFS on a shadow graph — sampled query pairs must agree.

It also checks the level-order side of the kernels: survivors keep their
relative order, and a default-placement insert lands at a position of
globally minimal index size (brute force over every position of the new
vertex in the pre-insert order).

Traces mix all four :class:`~repro.core.ops.UpdateOp` kinds and are
applied through ``op.apply(index)``, so the suite also covers the
UpdateOp dispatch surface.  A second group of tests pins the scratch
contract itself: steady-state updates reuse the *same* buffer objects
(no reallocation), generations only grow, and buffers stop growing once
the id space stops growing.
"""

import random

import pytest

from repro.core.index import TOLIndex
from repro.core.ops import UpdateOp
from repro.core.order import LevelOrder
from repro.core.reference import reference_tol
from repro.core.scratch import UpdateScratch
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.graph.traversal import forward_reachable

# ----------------------------------------------------------------------
# Trace generation: a DAG-preserving random mutation stream
# ----------------------------------------------------------------------


def _topo_order(graph: DiGraph):
    """Kahn's algorithm; deterministic (sorted ready set)."""
    indeg = {v: graph.in_degree(v) for v in graph.vertices()}
    ready = sorted(v for v, d in indeg.items() if d == 0)
    out = []
    while ready:
        v = ready.pop(0)
        out.append(v)
        for w in sorted(graph.out_neighbors(v)):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return out


class _TraceGen:
    """Generate valid UpdateOps against a shadow graph.

    Acyclicity is maintained with an explicit total order ``self.rank``:
    every edge goes from lower to higher rank, so any generated insert
    can never close a cycle.
    """

    def __init__(self, graph: DiGraph, seed: int):
        self.rng = random.Random(seed)
        self.shadow = graph.copy()
        self.rank = {v: i for i, v in enumerate(_topo_order(graph))}
        self.next_vertex = 10_000

    def _ranked(self):
        return sorted(self.shadow.vertices(), key=self.rank.__getitem__)

    def next_op(self):
        rng = self.rng
        verts = self._ranked()
        roll = rng.random()
        if roll < 0.35 or len(verts) < 4:
            v = self.next_vertex
            self.next_vertex += 1
            pos = rng.randint(0, len(verts))
            below = verts[:pos]
            above = verts[pos:]
            ins = rng.sample(below, min(len(below), rng.randint(0, 3)))
            outs = rng.sample(above, min(len(above), rng.randint(0, 3)))
            self.rank[v] = (
                (self.rank[below[-1]] if below else -1)
                + (self.rank[above[0]] if above else len(self.rank) + 1)
            ) / 2
            return UpdateOp.insert_vertex(v, ins, outs)
        if roll < 0.55:
            return UpdateOp.delete_vertex(rng.choice(verts))
        if roll < 0.80:
            for _ in range(20):
                a, b = rng.sample(verts, 2)
                if self.rank[a] > self.rank[b]:
                    a, b = b, a
                if not self.shadow.has_edge(a, b):
                    return UpdateOp.insert_edge(a, b)
            return UpdateOp.delete_vertex(rng.choice(verts))
        edges = list(self.shadow.edges())
        if not edges:
            return UpdateOp.delete_vertex(rng.choice(verts))
        return UpdateOp.delete_edge(*rng.choice(edges))

    def emit(self, op: UpdateOp) -> None:
        op.apply_to_graph(self.shadow)


CASES = [(12, 20, 1), (16, 30, 2), (20, 45, 3), (24, 70, 4), (30, 50, 5)]

#: Query pairs checked against BFS after every op.
SAMPLED_PAIRS = 32


def _assert_matches_ground_truth(index, shadow, rng, context):
    """Labels ≡ Definition 1 under the live order; sampled queries ≡ BFS."""
    ref = reference_tol(shadow, index.order)
    assert index.labeling.snapshot() == ref.snapshot(), context
    index.labeling.check_invariants()
    verts = list(shadow.vertices())
    for _ in range(SAMPLED_PAIRS):
        s, t = rng.choice(verts), rng.choice(verts)
        want = s == t or t in forward_reachable(shadow, s)
        assert index.query(s, t) == want, (context, s, t)


def _min_size_over_positions(graph, order_before, v):
    """Smallest Definition-1 index size over every position of *v*."""
    return min(
        reference_tol(
            graph, LevelOrder(order_before[:i] + [v] + order_before[i:])
        ).size()
        for i in range(len(order_before) + 1)
    )


@pytest.mark.parametrize("case", CASES, ids=lambda c: "n%d-m%d-s%d" % c)
def test_flat_kernels_match_reference(case):
    n, m, seed = case
    base = random_dag(n, m, seed=seed)
    index = TOLIndex.build(base, order="butterfly-u")
    rng = random.Random(seed)
    _assert_matches_ground_truth(index, base, rng, "build")

    gen = _TraceGen(base, seed * 977)
    for step in range(60):
        op = gen.next_op()
        before = list(index.order)
        op.apply(index)
        gen.emit(op)
        context = (step, op)
        _assert_matches_ground_truth(index, gen.shadow, rng, context)
        # Survivors keep their relative order (inserts add one vertex,
        # deletes drop one, edge ops re-insert at the old level).
        after = list(index.order)
        kept = set(before) & set(after)
        assert [x for x in after if x in kept] == [
            x for x in before if x in kept
        ], context
        if op.kind == "insert_vertex":
            # Default placement (Algorithm 3) is globally size-optimal.
            assert index.size() == _min_size_over_positions(
                gen.shadow, before, op.vertex
            ), context


def test_edge_round_trip_reuses_one_snapshot():
    """insert_edge/delete_edge share a single CSR snapshot per call."""
    base = random_dag(20, 40, seed=9)
    index = TOLIndex.build(base)
    rng = random.Random(13)
    shadow = base.copy()
    rank = {v: i for i, v in enumerate(_topo_order(base))}
    for step in range(25):
        verts = sorted(shadow.vertices(), key=rank.__getitem__)
        a, b = rng.sample(verts, 2)
        if rank[a] > rank[b]:
            a, b = b, a
        if shadow.has_edge(a, b):
            shadow.remove_edge(a, b)
            index.delete_edge(a, b)
        else:
            shadow.add_edge(a, b)
            index.insert_edge(a, b)
        _assert_matches_ground_truth(index, shadow, rng, (step, a, b))


# ----------------------------------------------------------------------
# Scratch contract: reuse, generations, no growth after warmup
# ----------------------------------------------------------------------

_BUFFERS = (
    "seen",
    "mark_a",
    "mark_b",
    "mark_c",
    "mark_d",
    "mark_e",
    "counts",
    "queue",
    "cand",
    "buf_a",
    "buf_b",
    "mem_a",
    "mem_b",
    "topo",
    "keys",
    "key_mark",
)


def _buffer_ids(scratch: UpdateScratch):
    return {name: id(getattr(scratch, name)) for name in _BUFFERS}


def _buffer_lens(scratch: UpdateScratch):
    return {name: len(getattr(scratch, name)) for name in _BUFFERS}


def test_scratch_buffers_are_reused_across_updates():
    base = random_dag(18, 36, seed=21)
    idx = TOLIndex.build(base)
    # Warmup: one insert/delete round trip materializes the scratch and
    # sizes every buffer to the id-space capacity.
    idx.insert_vertex("warm", [0, 1], [5])
    idx.delete_vertex("warm")
    scratch = idx.labeling.scratch
    assert isinstance(scratch, UpdateScratch)
    ids_before = _buffer_ids(scratch)
    lens_before = _buffer_lens(scratch)
    gen_before = scratch.generation

    # Steady state: insert/delete churn that reuses freed interner ids,
    # so the id space — and therefore every buffer — must not grow.
    for i in range(6):
        idx.insert_vertex(("churn", i), [0, 2], [7])
        idx.delete_vertex(("churn", i))

    assert idx.labeling.scratch is scratch
    assert _buffer_ids(scratch) == ids_before, "a buffer was reallocated"
    assert _buffer_lens(scratch) == lens_before, "a buffer grew in steady state"
    assert scratch.generation > gen_before


def test_scratch_generations_strictly_increase():
    s = UpdateScratch()
    g0 = s.begin(32)
    seen = s.seen
    gens = [g0] + [s.next_gen() for _ in range(5)]
    assert gens == sorted(set(gens)), "generations must be strictly increasing"
    assert all(g > 0 for g in gens), "generation 0 must never mark anything"
    # begin() at unchanged capacity keeps the same arrays.
    s.begin(16)
    assert s.seen is seen
    # Growth extends in place rather than replacing the list object.
    s.begin(4096)
    assert s.seen is seen
    assert len(s.seen) >= 4096


def test_scratch_marks_never_collide_across_generations():
    s = UpdateScratch()
    g1 = s.begin(8)
    s.seen[3] = g1
    g2 = s.next_gen()
    assert s.seen[3] != g2, "stale mark must not leak into a new generation"
    s.seen[3] = g2
    assert s.seen[3] == g2
