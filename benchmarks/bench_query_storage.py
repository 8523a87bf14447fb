"""Label-storage ablation — legacy dict/frozenset queries vs interned arrays.

Before the interned rewrite, `TOLLabeling` kept one frozenset of vertex
objects per side per vertex in plain dicts, and `query` intersected them
directly.  This file rebuilds that exact read path from a snapshot of the
*same* index, so the two query implementations answer over identical
label sets and the benchmark isolates the storage representation:

* ``legacy`` — ``{vertex: frozenset(vertex objects)}`` dicts; query is
  two dict lookups plus ``frozenset.isdisjoint`` on object sets.
* ``interned`` — the live index path: interner dict lookups to ids,
  then the Equation-1 kernel over the sorted ``array('i')`` buffers
  (see ``repro.core.labeling``), one pair per call.

Measured on random_dag(2000, 8000), 10000 uniform pairs, best of 15 on
a shared 2-vCPU Xeon (CPython 3.11): ``interned`` ~1100 ns per
single-pair query (~690 ns per pair through one ``query_many`` batch),
``legacy`` ~880 ns, frozen ~1370 ns.  A lazily built frozenset mirror
of the arrays, since removed for the memory it held, answered in
~380 ns.  The frozen CSR index rides along for context: it is the dense
*memory* layout, with the same probes over slices of one buffer.
"""

from __future__ import annotations

import random

import pytest

from repro.core import TOLIndex, freeze
from repro.graph.generators import random_dag

from _config import NUM_QUERIES, QUICK, cached

NUM_VERTICES = 300 if QUICK else 2000
NUM_EDGES = 4 * NUM_VERTICES


class LegacyLabelStore:
    """The pre-interning read path, verbatim: per-vertex sets of vertex
    objects in plain dicts, intersected with a smaller-side membership
    loop (the exact pre-rewrite ``TOLLabeling.query`` body)."""

    def __init__(self, index: TOLIndex) -> None:
        snapshot = index.labeling.snapshot()
        self.label_in = {v: set(ins) for v, (ins, _) in snapshot.items()}
        self.label_out = {v: set(outs) for v, (_, outs) in snapshot.items()}

    def query(self, s, t) -> bool:
        if s == t:
            return True
        out_s = self.label_out[s]
        in_t = self.label_in[t]
        if t in out_s or s in in_t:
            return True
        if len(out_s) > len(in_t):
            out_s, in_t = in_t, out_s
        return any(w in in_t for w in out_s)


def _workload():
    graph = random_dag(NUM_VERTICES, NUM_EDGES, seed=7)
    index = TOLIndex.build(graph)
    vertices = sorted(graph.vertices())
    rng = random.Random(42)
    pairs = [
        (rng.choice(vertices), rng.choice(vertices))
        for _ in range(max(NUM_QUERIES, 200))
    ]
    return index, pairs


@pytest.fixture(scope="module")
def workload():
    return cached(("query-storage", NUM_VERTICES), _workload)


def _drive(query, pairs):
    for s, t in pairs:
        query(s, t)


@pytest.mark.benchmark(group="query-storage")
def test_legacy_frozenset_queries(benchmark, workload):
    index, pairs = workload
    legacy = LegacyLabelStore(index)
    benchmark(_drive, legacy.query, pairs)
    benchmark.extra_info["queries"] = len(pairs)


@pytest.mark.benchmark(group="query-storage")
def test_interned_array_queries(benchmark, workload):
    index, pairs = workload
    # Same call depth as the legacy store (one bound method).
    query = index.labeling.query
    benchmark(_drive, query, pairs)
    benchmark.extra_info["queries"] = len(pairs)


@pytest.mark.benchmark(group="query-storage")
def test_frozen_csr_queries(benchmark, workload):
    index, pairs = workload
    frozen = freeze(index)
    benchmark(_drive, frozen.query, pairs)
    benchmark.extra_info["queries"] = len(pairs)


def test_storage_paths_agree(workload):
    """The ablation is only meaningful if all three answer identically."""
    index, pairs = workload
    legacy = LegacyLabelStore(index)
    frozen = freeze(index)
    for s, t in pairs:
        expected = legacy.query(s, t)
        assert index.query(s, t) == expected, (s, t)
        assert frozen.query(s, t) == expected, (s, t)
