"""No update path packs a CSR snapshot.

The update kernels walk the live adjacency; a CSR pack is O(|V| + |E|)
per call and serves the build pipeline only.  ``DiGraph.csr`` imports
``csr_snapshot`` at call time, so patching the module attribute counts
every pack.  Each index is built before the counter is armed: packing
during a build is expected.
"""

import random

import pytest

import repro.graph.csr as csr_module
from repro.core.index import ReachabilityIndex, TOLIndex
from repro.graph.generators import random_dag


@pytest.fixture
def packs(monkeypatch):
    """Return a list that grows by one entry per CSR pack once armed."""
    calls = []
    real = csr_module.csr_snapshot

    def counting(graph):
        calls.append(graph)
        return real(graph)

    def arm():
        monkeypatch.setattr(csr_module, "csr_snapshot", counting)
        return calls

    return arm


def test_tol_edge_ops_pack_nothing(packs):
    graph = random_dag(60, 200, seed=1)
    idx = TOLIndex.build(graph)
    edges = random.Random(1).sample(sorted(graph.edges()), 10)
    calls = packs()
    for tail, head in edges:
        idx.delete_edge(tail, head)
        idx.insert_edge(tail, head)
    assert calls == []


def test_tol_reduce_labels_packs_nothing(packs):
    graph = random_dag(60, 200, seed=2)
    idx = TOLIndex.build(graph, order="topological")
    # Reduce after an update, as a served index is reduced.
    tail, head = sorted(graph.edges())[0]
    idx.insert_vertex("new", [tail], [head])
    calls = packs()
    idx.reduce_labels(max_rounds=1)
    assert calls == []


def test_reachability_index_updates_pack_nothing(packs):
    index = ReachabilityIndex(random_dag(60, 200, seed=3))
    tail, head = sorted(index.condensation.graph.edges())[0]
    calls = packs()
    index.insert_vertex("new", [tail], [head])
    index.insert_edge(head, "new")  # closes a cycle: merges an SCC
    index.delete_edge(head, "new")  # splits it again
    index.delete_edge(tail, head)
    index.insert_edge(tail, head)
    index.delete_vertex("new")
    assert calls == []
