"""Frozen snapshots: label memory, publish cost and per-pair query cost.

The live index keeps each label set as a sorted ``array('i')`` of
interned ids, shaped for the paper's update algorithms; the frozen
snapshot packs the same ids into two flat label arrays plus CSR offsets,
shaped for read-only serving.  Both answer through the one Equation-1
kernel, :func:`repro.core.labeling.witness_id`.  Two measurements:

* ``test_render_frozen_ablation`` — label memory of both over the same
  labels on 900-vertex stand-ins: the live label arrays (the per-vertex
  ``array`` objects and the two lists holding them) against the frozen
  buffers (labels and offsets).  Writes ``results/ablation_frozen.txt``.
* ``test_publish_cost`` — on the go-uniprot and RG5 stand-ins at 10k
  vertices (2000 under ``--quick``), the graphs of servebench's
  read-cold and churn workloads, best of ``PUBLISH_REPS`` with gc
  paused: the three steps one shared-memory publish pays per snapshot
  (``freeze(tol, edges=False)`` and
  :func:`~repro.core.serialize.pack_snapshot` on the writer,
  :func:`~repro.core.serialize.unpack_snapshot` on each reader's
  attach), and the per-pair query cost over ``QUERY_PAIRS`` uniform
  component pairs of the live labels (one ``query_many`` batch) and of
  the unpacked snapshot a reader serves from (``query`` per pair, as
  the reader workers call it).  The two sides' answers must agree.
  Writes ``BENCH_publish.json`` (repo root at full scale,
  ``results-smoke/`` under ``--quick``): the latest view plus a
  ``{sha, host, headline}`` history row per run (see
  :mod:`_provenance`).
"""

import gc
import random
import sys
import time

from repro import datasets as ds
from repro.bench.tables import format_bytes, format_table
from repro.core.frozen import freeze
from repro.core.index import ReachabilityIndex, TOLIndex
from repro.core.serialize import pack_snapshot, unpack_snapshot

from _config import QUICK, RESULTS_DIR
from _provenance import write_headline

DATASETS = ["RG10", "citeseerx", "go-uniprot"]
NUM_VERTICES = 900

BENCH_PUBLISH = "BENCH_publish.json"
PUBLISH_GRAPHS = ("go-uniprot", "RG5")
PUBLISH_VERTICES = 2_000 if QUICK else 10_000
PUBLISH_REPS = 5
QUERY_PAIRS = 50_000


def _live_label_bytes(labeling) -> int:
    """Bytes of the live label store: both lists and every array in them."""
    return sum(
        sys.getsizeof(side) + sum(sys.getsizeof(a) for a in side if a is not None)
        for side in (labeling.in_ids, labeling.out_ids)
    )


def test_render_frozen_ablation(benchmark):
    rows = []
    for dataset in DATASETS:
        graph = ds.load(dataset, num_vertices=NUM_VERTICES)
        live = TOLIndex.build(graph, order="butterfly-u")
        frozen = freeze(live)
        live_bytes = _live_label_bytes(live.labeling)
        rows.append([
            dataset,
            format_bytes(live_bytes),
            format_bytes(frozen.buffer_bytes()),
        ])
        assert frozen.buffer_bytes() < live_bytes
    table = format_table(
        "Serving ablation: live (label arrays) vs frozen (CSR buffers)",
        ["dataset", "live labels", "frozen buffers"],
        rows,
        note=(
            f"{NUM_VERTICES}-vertex stand-ins.  Live labels: the in/out id "
            "lists and their per-vertex arrays (inverted lists excluded); "
            "frozen buffers: labels and offsets."
        ),
    )
    benchmark(lambda: table)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "ablation_frozen.txt").write_text(table + "\n", encoding="utf-8")
    print("\n" + table)


def _best_ms(step, reps: int = PUBLISH_REPS) -> tuple[float, object]:
    """Best wall time of *reps* calls of *step*, and its last result."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        result = step()
        best = min(best, time.perf_counter() - start)
    return round(best * 1e3, 3), result


def test_publish_cost():
    graphs, headline = {}, {}
    for name in PUBLISH_GRAPHS:
        graph = ds.load(name, num_vertices=PUBLISH_VERTICES, seed=0)
        index = ReachabilityIndex(graph)
        component_of = dict(index.condensation.component_of)
        labeling = index.tol.labeling
        components = list(labeling.order)
        rng = random.Random(0)
        pairs = [
            (rng.choice(components), rng.choice(components))
            for _ in range(QUERY_PAIRS)
        ]
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            freeze_ms, frozen = _best_ms(
                lambda: freeze(index.tol, edges=False)
            )
            pack_ms, blob = _best_ms(
                lambda: pack_snapshot(frozen, component_of, {"epoch": 0})
            )
            unpack_ms, (reader, _, _) = _best_ms(lambda: unpack_snapshot(blob))
            live_ms, live_answers = _best_ms(
                lambda: labeling.query_many(pairs)
            )
            frozen_ms, frozen_answers = _best_ms(
                lambda: [reader.query(s, t) for s, t in pairs]
            )
        finally:
            if gc_was_enabled:
                gc.enable()
        assert frozen_answers == live_answers
        key = f"{name}-{PUBLISH_VERTICES}"
        headline[key] = {
            "freeze_ms": freeze_ms,
            "pack_snapshot_ms": pack_ms,
            "unpack_snapshot_ms": unpack_ms,
            "live_query_us": round(live_ms * 1e3 / QUERY_PAIRS, 4),
            "frozen_query_us": round(frozen_ms * 1e3 / QUERY_PAIRS, 4),
        }
        graphs[key] = {
            **headline[key],
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "labels": index.tol.size(),
            "pack_bytes": len(blob),
        }
    write_headline(BENCH_PUBLISH, {
        "benchmark": "publish",
        "quick": QUICK,
        "protocol": (
            f'datasets.load(name, num_vertices={PUBLISH_VERTICES}, seed=0); '
            "ReachabilityIndex(graph); best of "
            f"{PUBLISH_REPS} calls each, gc paused, of freeze(index.tol, "
            "edges=False), pack_snapshot(frozen, component_of, meta), "
            "unpack_snapshot(blob), and, over "
            f"{QUERY_PAIRS} uniform component pairs (random.Random(0)), "
            "index.tol.labeling.query_many(pairs) (live_query_us) and "
            "reader.query per pair on the unpacked snapshot "
            "(frozen_query_us), per pair; one history row per run"
        ),
        "graphs": graphs,
        "headline": headline,
    })
    print(headline)
