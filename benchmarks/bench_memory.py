"""Resident bytes of a live index, structure by structure.

Builds a :class:`~repro.service.server.ReachabilityService` over the
10k-vertex ``go-uniprot`` and ``RG5`` stand-ins (the graphs of the served
read-cold and churn workloads; 2000 vertices under ``--quick``) and
records the bytes reachable from each structure it keeps:

* ``label_arrays`` — the ``in_ids`` / ``out_ids`` lists and their
  sorted ``array('i')`` label buffers;
* ``holder_sets`` — the inverted lists ``in_holders`` / ``out_holders``,
  sorted ``array('i')`` buffers like the labels (the key keeps its old
  name, from when they were ``set[int]``, so the history stays
  comparable);
* ``interner`` — the vertex <-> id maps;
* ``original_graph`` — the input graph the index keeps, the only copy
  of the served graph (the service checkpoints and audits it and
  answers degraded queries from it);
* ``condensation`` — the condensed DAG, ``component_of`` and ``members``;
  the DAG is the one the TOL index's update kernels walk and write, so
  it has no row of its own (the build's CSR snapshot of it is released
  when the build ends).

Each structure is walked on its own (objects shared between two
structures are counted in both).  It then runs one full read cycle,
16384 of the paper's topo-aware pairs in 64-pair batches, through
``ReachabilityIndex.query_many`` (no result cache in the path) under
``tracemalloc`` and records the bytes the cycle left allocated.

The CI gate (``bench-memory`` step): a read cycle retains at most
``MAX_RETAINED_BYTES``.  Queries read the label arrays and keep
nothing; a per-vertex query-side copy of the labels would show here.
The holder lists take at most ``MAX_HOLDER_RATIO`` times the bytes of
the label arrays they invert: both hold one 4-byte id per label, so a
hashed or boxed holder representation would show here.

Writes ``BENCH_memory.json`` (repo root at full scale, ``results-smoke/``
under ``--quick``; see :mod:`_provenance`).
"""

import gc
import sys
import tracemalloc
from array import array

from repro import datasets
from repro.bench.workloads import generate_queries
from repro.core.index import ReachabilityIndex
from repro.service.server import ReachabilityService

from _config import QUICK
from _provenance import write_headline

BENCH_MEMORY = "BENCH_memory.json"

GRAPHS = ("go-uniprot", "RG5")
NUM_VERTICES = 2_000 if QUICK else 10_000

#: One read cycle: pairs, and pairs per ``query_many`` call.
CYCLE_PAIRS = 16_384
BATCH = 64

#: CI gate on the bytes one read cycle leaves allocated.
MAX_RETAINED_BYTES = 1 << 20

#: CI gate on holder-list bytes over label-array bytes.
MAX_HOLDER_RATIO = 2


def deep_sizeof(root) -> int:
    """``sys.getsizeof`` summed over every object reachable from *root*.

    Follows containers, ``__dict__`` and ``__slots__``; an ``array``'s
    items are raw values inside its own buffer, so it is a leaf.
    """
    seen = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, (str, bytes, int, float, array)) or obj is None:
            continue
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            if hasattr(obj, "__dict__"):
                stack.append(obj.__dict__)
            for cls in type(obj).__mro__:
                for name in getattr(cls, "__slots__", ()):
                    if hasattr(obj, name):
                        stack.append(getattr(obj, name))
    return total


def structure_bytes(service: ReachabilityService) -> dict:
    index = service._index
    labeling = index.tol.labeling
    condensation = index.condensation
    return {
        "label_arrays": deep_sizeof([labeling.in_ids, labeling.out_ids]),
        "holder_sets": deep_sizeof(
            [labeling.in_holders, labeling.out_holders]
        ),
        "interner": deep_sizeof(labeling.interner),
        "original_graph": deep_sizeof(condensation.graph),
        "condensation": deep_sizeof(
            [condensation.dag, condensation.component_of, condensation.members]
        ),
    }


def read_cycle_retained(index: ReachabilityIndex, batches) -> int:
    """Bytes still allocated after one pass of *batches* through the
    index, as counted by ``tracemalloc``."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for batch in batches:
            index.query_many(batch)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def measure(name: str) -> dict:
    graph = datasets.load(name, num_vertices=NUM_VERTICES, seed=0)
    service = ReachabilityService(graph)
    pairs = list(generate_queries(graph, CYCLE_PAIRS, seed=1).pairs)
    batches = [pairs[i:i + BATCH] for i in range(0, len(pairs), BATCH)]
    return {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "labels": service.size(),
        "bytes": structure_bytes(service),
        "read_cycle_pairs": len(pairs),
        "read_cycle_retained_bytes": read_cycle_retained(
            service._index, batches
        ),
    }


def test_memory_headline():
    graphs = {f"{name}-{NUM_VERTICES}": measure(name) for name in GRAPHS}
    for key, row in graphs.items():
        row["bytes_per_vertex"] = {
            part: round(size / row["vertices"], 1)
            for part, size in row["bytes"].items()
        }
        print(
            f"{key}: retained {row['read_cycle_retained_bytes']} B per read "
            f"cycle; {row['bytes_per_vertex']}"
        )
    payload = {
        "benchmark": "memory",
        "quick": QUICK,
        "graphs": graphs,
        "headline": {
            key: {
                "read_cycle_retained_bytes": row["read_cycle_retained_bytes"],
                "label_arrays_bytes": row["bytes"]["label_arrays"],
                "holder_sets_bytes": row["bytes"]["holder_sets"],
            }
            for key, row in graphs.items()
        },
    }
    write_headline(BENCH_MEMORY, payload)
    for key, row in graphs.items():
        assert row["read_cycle_retained_bytes"] <= MAX_RETAINED_BYTES, (
            key, row["read_cycle_retained_bytes"])
        sizes = row["bytes"]
        assert (
            sizes["holder_sets"] <= MAX_HOLDER_RATIO * sizes["label_arrays"]
        ), (key, sizes["holder_sets"], sizes["label_arrays"])
