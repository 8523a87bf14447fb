"""Update-kernel throughput against a from-scratch rebuild.

The Section-5 update algorithms (Algorithms 1–4) run on preallocated
scratch arrays (:mod:`repro.core.scratch`).  This bench measures
steady-state ``insert_vertex`` / ``delete_vertex`` throughput on a churn
workload and emits the ``BENCH_update.json`` headline (repo root at full
scale, ``results-smoke/`` under ``--quick``; see :mod:`_provenance`) —
inserts/sec and deletes/sec — together with the cost of one full
``TOLIndex.build`` of the base graph, timed in the same process on the
same host, interleaved with the churn reps.

It doubles as the CI regression gate (``bench-update`` step): the mean
cost of one update must stay at most ``1 / MIN_REBUILD_OVER_UPDATE`` of
a rebuild — the paper's premise for maintaining the index dynamically
instead of rebuilding it.

Workload shape: the base DAG stays fixed; each rep inserts a batch of
fresh vertices (in-neighbors sampled below a random topological position
of the base order, out-neighbors above it — so the DAG property holds by
construction and every delete exercises both repair frontiers), then
deletes the same batch in reverse.  The index returns to its base state
after every rep, so reps are independent and the interner's free list
keeps the id space — and therefore the scratch buffers — at a fixed
size: what is measured is exactly the steady state the scratch design
targets.

At full scale it also records delete and edge-op rates on the 10k-vertex
RG5 stand-in (``test_rg5_rates``), the graph and size of the served
churn workload.  Those rows are appended to the ``rg5_10k`` history of
``BENCH_update.json`` with the host and the git sha of the measured
source, so a run on an older checkout adds a comparable row.
"""

import gc
import random
import time

import pytest

from repro import datasets
from repro.core.index import ReachabilityIndex, TOLIndex
from repro.graph.generators import random_dag
from repro.graph.traversal import bidirectional_reachable

from _config import QUICK
from _provenance import (
    host,
    read_bench,
    source_sha,
    write_bench,
    write_headline,
)

#: Headline artifact (committed at full scale).
BENCH_UPDATE = "BENCH_update.json"

#: Base graph size (vertices, edges) — smoke scale / full scale.
HEADLINE_SIZE = (150, 600) if QUICK else (1200, 4800)

#: Vertices inserted+deleted per rep.
BATCH = 30 if QUICK else 150

#: Min-of-N repetitions (quick runs are short enough that scheduler
#: noise needs more samples to quiet down).
REPS = 9 if QUICK else 5

#: CI gate: one full rebuild of the base graph must cost at least this
#: many mean updates (inserts and deletes alike, the whole churn
#: workload).  The gate is on the combined time — the per-op insert and
#: delete rates are published in the headline but individually ride
#: timed regions of a few milliseconds at ``--quick`` scale, too small
#: to gate on without flaking.
MIN_REBUILD_OVER_UPDATE = 4.0

#: Vertex deletes and edge round trips timed per RG5 rep.
RG5_SAMPLE = 40
RG5_REPS = 3


def _churn_plan(graph, batch, seed):
    """Precompute the insertion batch: ``(vertex, ins, outs)`` triples.

    Neighbors are split around a random position of a topological order
    of the base graph, so inserts can never create a cycle no matter the
    order they are applied in, and the fresh vertices never connect to
    each other (each rep's deletes are order-independent).
    """
    rng = random.Random(seed)
    indeg = {v: graph.in_degree(v) for v in graph.vertices()}
    ready = sorted(v for v, d in indeg.items() if d == 0)
    topo = []
    while ready:
        v = ready.pop()
        topo.append(v)
        for w in graph.out_neighbors(v):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    plan = []
    for i in range(batch):
        pos = rng.randint(1, len(topo) - 1)
        ins = rng.sample(topo[:pos], min(pos, rng.randint(1, 3)))
        outs = rng.sample(
            topo[pos:], min(len(topo) - pos, rng.randint(1, 3))
        )
        plan.append((("churn", i), ins, outs))
    return plan


def _churn_rep(index, plan):
    """One timed churn rep: ``(insert_seconds, delete_seconds)``."""
    start = time.perf_counter()
    for v, ins, outs in plan:
        index.insert_vertex(v, ins, outs)
    mid = time.perf_counter()
    for v, _, _ in reversed(plan):
        index.delete_vertex(v)
    end = time.perf_counter()
    return mid - start, end - mid


def _time_churn(index, plan, reps):
    """Best-of-*reps* ``(insert_seconds, delete_seconds)``."""
    best_ins = best_del = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            ins_s, del_s = _churn_rep(index, plan)
            best_ins = min(best_ins, ins_s)
            best_del = min(best_del, del_s)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best_ins, best_del


def _time_build(graph):
    """Wall seconds for one ``TOLIndex.build`` (copy + order + Butterfly)."""
    start = time.perf_counter()
    TOLIndex.build(graph, order="butterfly-u")
    return time.perf_counter() - start


def test_update_headline(benchmark):
    """Emit ``BENCH_update.json`` and gate updates against a rebuild."""
    num_vertices, num_edges = HEADLINE_SIZE
    graph = random_dag(num_vertices, num_edges, seed=0)
    plan = _churn_plan(graph, BATCH, seed=7)

    # Churn and rebuild are timed in interleaved rounds (churn rep,
    # rebuild, churn rep, ...) so slow machine drift — CI neighbors,
    # thermal throttling — lands on both sides of the ratio instead of
    # one.  The first, untimed warmup rep also grows the scratch buffers
    # to their steady-state size, which is the state this bench measures.
    index = TOLIndex.build(graph, order="butterfly-u")
    size = index.size()
    _churn_rep(index, plan)  # warmup, untimed
    ins_s = del_s = build_s = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPS):
            rep_ins, rep_del = _churn_rep(index, plan)
            ins_s = min(ins_s, rep_ins)
            del_s = min(del_s, rep_del)
            build_s = min(build_s, _time_build(graph))
    finally:
        if gc_was_enabled:
            gc.enable()
    assert index.size() == size, "churn must restore the index"

    update_s = (ins_s + del_s) / (2 * BATCH)
    rebuild_over_update = build_s / update_s
    headline = {
        "num_vertices": num_vertices,
        "num_edges": num_edges,
        "batch": BATCH,
        "inserts_per_second": round(BATCH / ins_s, 1),
        "deletes_per_second": round(BATCH / del_s, 1),
        "rebuild_over_update": round(rebuild_over_update, 3),
    }
    payload = {
        "benchmark": "flat-update-kernels",
        "generated_by": (
            "benchmarks/bench_update_kernels.py::test_update_headline"
        ),
        "protocol": (
            f"min-of-{REPS} wall seconds, gc paused; one rep inserts "
            f"{BATCH} vertices (1-3 in/out neighbors each) then deletes "
            f"them, restoring the base index; id space fixed via "
            f"free-list reuse; rebuild = one TOLIndex.build of the base "
            f"graph, interleaved with the reps; rebuild_over_update = "
            f"rebuild seconds / mean seconds per insert or delete"
        ),
        "quick": QUICK,
        "headline": headline,
        "insert_seconds": round(ins_s, 6),
        "delete_seconds": round(del_s, 6),
        "rebuild_seconds": round(build_s, 6),
    }
    write_headline(BENCH_UPDATE, payload)
    benchmark.extra_info.update(headline)
    benchmark.pedantic(
        lambda: _time_churn(
            TOLIndex.build(graph, order="butterfly-u"), plan, 1
        ),
        rounds=1,
        iterations=1,
    )
    assert rebuild_over_update >= MIN_REBUILD_OVER_UPDATE, (
        f"one update costs more than 1/{MIN_REBUILD_OVER_UPDATE:g} of a "
        f"rebuild on random_dag{HEADLINE_SIZE}: rebuild {build_s:.4f}s, "
        f"mean update {update_s * 1e3:.3f}ms "
        f"({rebuild_over_update:.2f}x)"
    )


def _rg5_rep(index, graph, victims, edges):
    """One timed pass: ``(delete_s, edge_delete_s, edge_insert_s)``.

    Each victim is deleted and re-inserted with its recorded neighbours,
    and each edge deleted and re-inserted, so the graph is restored;
    only the deletes and the edge ops are timed.
    """
    del_s = edge_del_s = edge_ins_s = 0.0
    for v in victims:
        ins = sorted(graph.in_neighbors(v))
        outs = sorted(graph.out_neighbors(v))
        start = time.perf_counter()
        index.delete_vertex(v)
        del_s += time.perf_counter() - start
        index.insert_vertex(v, ins, outs)
    for a, b in edges:
        start = time.perf_counter()
        index.delete_edge(a, b)
        mid = time.perf_counter()
        index.insert_edge(a, b)
        edge_ins_s += time.perf_counter() - mid
        edge_del_s += mid - start
    return del_s, edge_del_s, edge_ins_s


@pytest.mark.skipif(QUICK, reason="full-scale record only")
def test_rg5_rates():
    """Append delete and edge-op rates on RG5 at 10k vertices."""
    graph = datasets.load("RG5", num_vertices=10000, seed=0)
    rng = random.Random(11)
    victims = rng.sample(sorted(graph.vertices()), RG5_SAMPLE)
    edges = rng.sample(sorted(graph.edges()), RG5_SAMPLE)
    index = ReachabilityIndex(graph)
    _rg5_rep(index, graph, victims, edges)  # warmup, untimed
    best = [float("inf")] * 3
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(RG5_REPS):
            best = [
                min(b, t)
                for b, t in zip(best, _rg5_rep(index, graph, victims, edges))
            ]
    finally:
        if gc_was_enabled:
            gc.enable()
    for s, t in random.Random(5).sample(
        [(s, t) for s in victims for t in victims], 200
    ):
        assert index.query(s, t) == bidirectional_reachable(graph, s, t)

    del_s, edge_del_s, edge_ins_s = best
    row = {
        "sha": source_sha(),
        "host": host(),
        "deletes_per_second": round(RG5_SAMPLE / del_s, 1),
        "edge_deletes_per_second": round(RG5_SAMPLE / edge_del_s, 1),
        "edge_inserts_per_second": round(RG5_SAMPLE / edge_ins_s, 1),
    }
    history = read_bench(BENCH_UPDATE).get("rg5_10k", {}).get("history", [])
    write_bench(BENCH_UPDATE, {"rg5_10k": {
        "graph": 'datasets.load("RG5", num_vertices=10000, seed=0)',
        "protocol": (
            f"ReachabilityIndex; {RG5_SAMPLE} random vertices deleted "
            f"(each re-inserted with its neighbours, untimed) and "
            f"{RG5_SAMPLE} random edges deleted then re-inserted; one "
            f"untimed warmup pass, then the best of {RG5_REPS} passes per "
            f"rate, gc paused; rows are appended, one per run"
        ),
        "history": history + [row],
    }})
