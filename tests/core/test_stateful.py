"""Hypothesis stateful testing: the dynamic index as a state machine.

A `RuleBasedStateMachine` drives :class:`ReachabilityIndex` through
arbitrary interleavings of vertex/edge insertions and deletions (SCC
merges and splits included), label reduction and pack round trips,
keeping a plain :class:`DiGraph` as the model.  Invariants checked after
every rule: a sample of queries matches BFS on the model, the labels
equal the Definition-1 labels of the condensed DAG under the index's own
level order, the TOL index walks the condensation's own DAG object, and
the SCC condensation agrees with a from-scratch one.
This is the widest net in the suite — hypothesis shrinks any failure to
a minimal op sequence automatically.
"""

import random

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.core.index import ReachabilityIndex
from repro.core.reference import reference_tol
from repro.core.serialize import pack_index, unpack_index
from repro.graph.digraph import DiGraph
from repro.graph.traversal import bidirectional_reachable, forward_reachable


class DynamicReachabilityMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.model = DiGraph()
        self.index = None
        self.counter = 0
        self.rng = random.Random(0xBEEF)

    @initialize(seed=st.integers(0, 2**16))
    def setup(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        self.model = DiGraph(vertices=range(n))
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.25:
                    self.model.add_edge_if_absent(i, j)
        self.index = ReachabilityIndex(self.model)
        self.counter = n

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------

    @rule(data=st.data())
    def insert_vertex(self, data):
        verts = sorted(self.model.vertices(), key=repr)
        ins = [v for v in verts if data.draw(st.booleans(), label="in?")]
        outs = [v for v in verts if data.draw(st.booleans(), label="out?")]
        v = self.counter
        self.counter += 1
        self.index.insert_vertex(v, ins, outs)
        self.model.add_vertex(v)
        for u in ins:
            self.model.add_edge(u, v)
        for w in outs:
            self.model.add_edge_if_absent(v, w)

    @precondition(lambda self: self.model.num_vertices > 1)
    @rule(data=st.data())
    def delete_vertex(self, data):
        verts = sorted(self.model.vertices(), key=repr)
        v = data.draw(st.sampled_from(verts), label="victim")
        self.index.delete_vertex(v)
        self.model.remove_vertex(v)

    @rule(data=st.data())
    def insert_edge(self, data):
        verts = sorted(self.model.vertices(), key=repr)
        candidates = [
            (a, b)
            for a in verts
            for b in verts
            if a != b and not self.model.has_edge(a, b)
        ]
        if not candidates:
            return
        a, b = data.draw(st.sampled_from(candidates), label="edge")
        self.index.insert_edge(a, b)
        self.model.add_edge(a, b)

    @precondition(lambda self: self.model.num_edges > 0)
    @rule(data=st.data())
    def delete_edge(self, data):
        edges = sorted(self.model.edges(), key=repr)
        a, b = data.draw(st.sampled_from(edges), label="edge")
        self.index.delete_edge(a, b)
        self.model.remove_edge(a, b)

    @rule(data=st.data())
    def insert_back_edge(self, data):
        # An edge from a descendant back to its ancestor closes a cycle,
        # so the components on it merge.
        candidates = [
            (d, v)
            for v in sorted(self.model.vertices(), key=repr)
            for d in sorted(forward_reachable(self.model, v), key=repr)
            if d != v and not self.model.has_edge(d, v)
        ]
        if not candidates:
            return
        d, v = data.draw(st.sampled_from(candidates), label="back edge")
        self.index.insert_edge(d, v)
        self.model.add_edge(d, v)

    @rule(data=st.data())
    def delete_intra_scc_edge(self, data):
        # Losing an edge inside a component may split it.
        same = self.index.condensation.same_component
        edges = [
            (a, b)
            for a, b in sorted(self.model.edges(), key=repr)
            if a != b and same(a, b)
        ]
        if not edges:
            return
        a, b = data.draw(st.sampled_from(edges), label="intra edge")
        self.index.delete_edge(a, b)
        self.model.remove_edge(a, b)

    @rule()
    def reduce_labels(self):
        self.index.reduce_labels(max_rounds=1)

    @rule()
    def pack_round_trip(self):
        self.index = unpack_index(pack_index(self.index))

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    @invariant()
    def queries_match_model(self):
        if self.index is None:
            return
        verts = sorted(self.model.vertices(), key=repr)
        if not verts:
            return
        for _ in range(10):
            s = self.rng.choice(verts)
            t = self.rng.choice(verts)
            assert self.index.query(s, t) == bidirectional_reachable(
                self.model, s, t
            ), (s, t)

    @invariant()
    def labels_match_reference(self):
        if self.index is None:
            return
        tol = self.index.tol
        ref = reference_tol(self.index.condensation.dag, tol.order)
        assert tol.labeling.snapshot() == ref.snapshot()

    @invariant()
    def tol_walks_the_condensed_dag(self):
        if self.index is not None:
            assert self.index.tol._graph is self.index.condensation.dag

    @invariant()
    def condensation_consistent(self):
        if self.index is not None:
            self.index.condensation.check_invariants()

    @invariant()
    def sizes_consistent(self):
        if self.index is not None:
            assert self.index.num_vertices == self.model.num_vertices
            assert self.index.num_edges == self.model.num_edges


DynamicReachabilityMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=15, deadline=None
)
TestDynamicReachability = DynamicReachabilityMachine.TestCase
