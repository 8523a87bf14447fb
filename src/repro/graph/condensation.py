"""Incrementally maintained SCC condensation for dynamic graphs.

The TOL algorithms (Section 5 of the paper) require that the graph being
indexed is a DAG and that every update keeps it one.  The paper handles the
general case by "incrementally maintaining the strongly connected components
in G, as discussed in [32]" (Dagger).  :class:`DynamicCondensation` is that
substrate: it owns the user's (possibly cyclic) graph, keeps its SCC
partition (``component_of``, ``members``) up to date under vertex and edge
updates, and reports every change to the condensed DAG as a
:class:`CondensationDelta` — a list of condensation vertices to delete
followed by a list to (re)insert.

There is one condensed DAG, :attr:`DynamicCondensation.dag`; the updates
here only read it, and the consumer of each delta writes it.  The facade
index (:mod:`repro.core.index`) builds its TOL index on this DAG and
replays each delta with the paper's vertex-deletion and vertex-insertion
algorithms, which take out and add the DAG vertex as they go; Dagger
calls :meth:`DynamicCondensation.apply_to_dag`.

Component ids are dense-ish integers drawn from a monotonically increasing
counter and are never reused, so a delta's ``removed`` and ``added`` lists
are unambiguous even when a component is conceptually "the same" before and
after (e.g. an edge insertion that merely adds a condensation edge removes
and re-adds the head component).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain

from ..errors import (
    EdgeExistsError,
    EdgeNotFoundError,
    VertexExistsError,
    VertexNotFoundError,
)
from .digraph import DiGraph
from .scc import condense, strongly_connected_components

__all__ = ["CondensationDelta", "DynamicCondensation"]

Vertex = Hashable


def _sources_first(graph: DiGraph, pieces: list[list[Vertex]]) -> list:
    """Order SCC *pieces* sources first (cheapest for TOL insertion), ties
    by smallest vertex value.  Unlike Tarjan's order among unrelated pieces
    (set iteration order), this one survives a save and load."""
    if len(pieces) < 2:
        return pieces
    piece_of = {v: i for i, piece in enumerate(pieces) for v in piece}
    succ = [
        {piece_of[w] for v in piece for w in graph.iter_out(v)} - {i}
        for i, piece in enumerate(pieces)
    ]
    indegree = [0] * len(pieces)
    for j in chain.from_iterable(succ):
        indegree[j] += 1
    # A total order on vertex values: ints by value, anything else by repr.
    key = [
        min((0, v) if type(v) is int else (1, repr(v)) for v in piece)
        for piece in pieces
    ]
    heap = [(key[i], i) for i, d in enumerate(indegree) if not d]
    heapify(heap)
    ordered = []
    while heap:
        i = heappop(heap)[1]
        ordered.append(pieces[i])
        for j in succ[i]:
            indegree[j] -= 1
            if not indegree[j]:
                heappush(heap, (key[j], j))
    return ordered


@dataclass(frozen=True)
class CondensationDelta:
    """The condensed-DAG effect of one update on the original graph.

    The consumer of a delta writes the DAG.  First it removes each
    component in ``removed`` while its old adjacency is still in the DAG;
    then it inserts each component in ``added``, in order, with the edges
    :meth:`DynamicCondensation.placed_neighbors` reads from member edges.

    Attributes
    ----------
    removed:
        Component ids that must be deleted from the DAG and from any
        index built on it, in order.
    added:
        Component ids that must be inserted afterwards, in order.
    """

    removed: tuple[int, ...] = ()
    added: tuple[int, ...] = ()

    def is_empty(self) -> bool:
        """Return ``True`` when the condensed DAG was not affected."""
        return not self.removed and not self.added


class DynamicCondensation:
    """A directed graph together with its live SCC condensation.

    Parameters
    ----------
    graph:
        Initial graph (may contain cycles).  The instance takes ownership;
        callers must mutate the graph only through this class afterwards.

    Examples
    --------
    >>> dc = DynamicCondensation(DiGraph(edges=[(1, 2), (2, 3)]))
    >>> dc.dag.num_vertices
    3
    >>> delta = dc.insert_edge(3, 1)   # creates the cycle 1 -> 2 -> 3 -> 1
    >>> len(delta.removed), len(delta.added)
    (3, 1)
    >>> dc.apply_to_dag(delta)
    >>> dc.dag.num_vertices
    1
    """

    def __init__(self, graph: DiGraph | None = None) -> None:
        self.graph = graph if graph is not None else DiGraph()
        initial = condense(self.graph)
        self.component_of: dict[Vertex, int] = dict(initial.component_of)
        self.members: dict[int, set[Vertex]] = {
            cid: set(vs) for cid, vs in initial.members.items()
        }
        self._next_id = initial.num_components
        self._build_dag()

    @classmethod
    def restore(
        cls, graph: DiGraph, component_of: dict[Vertex, int], next_id: int
    ) -> "DynamicCondensation":
        """Rebuild a condensation from a snapshot, preserving component ids.

        The normal constructor assigns fresh ids from its own counter, so
        two builds of the same graph need not agree; a serialized index
        (``.tolf`` pack) names components by id, so restoring must reuse
        the recorded ``component_of`` mapping verbatim.  The id counter
        resumes at the saved *next_id* — above every id ever issued, not
        just the live ones — keeping the never-reuse guarantee.
        """
        self = cls.__new__(cls)
        self.graph = graph
        self.component_of = dict(component_of)
        members: dict[int, set[Vertex]] = {}
        for v in graph.vertices():
            try:
                comp = self.component_of[v]
            except KeyError:
                raise VertexNotFoundError(v) from None
            members.setdefault(comp, set()).add(v)
        self.members = members
        if next_id <= max(members, default=-1):
            raise ValueError(f"next component id {next_id} is already in use")
        self._next_id = next_id
        self._build_dag()
        return self

    def _build_dag(self) -> None:
        """Condense the graph's edges onto ``members``' components."""
        component_of = self.component_of
        self.dag = dag = DiGraph(vertices=self.members.keys())
        for tail, head in self.graph.edges():
            c_tail = component_of[tail]
            c_head = component_of[head]
            if c_tail != c_head:
                dag.add_edge_if_absent(c_tail, c_head)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def component(self, vertex: Vertex) -> int:
        """Return the component id containing *vertex*."""
        try:
            return self.component_of[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def same_component(self, u: Vertex, v: Vertex) -> bool:
        """Return ``True`` iff *u* and *v* are strongly connected."""
        return self.component(u) == self.component(v)

    # ------------------------------------------------------------------
    # Vertex updates
    # ------------------------------------------------------------------

    def insert_vertex(
        self,
        vertex: Vertex,
        in_neighbors: Iterable[Vertex] = (),
        out_neighbors: Iterable[Vertex] = (),
    ) -> CondensationDelta:
        """Insert *vertex* with edges from *in_neighbors* and to *out_neighbors*.

        All named neighbors must already exist.  If the insertion closes a
        cycle, every component on a cycle through *vertex* is merged into a
        single new component.
        """
        if vertex in self.component_of:
            raise VertexExistsError(vertex)
        ins = list(dict.fromkeys(in_neighbors))
        outs = list(dict.fromkeys(out_neighbors))
        for u in ins + outs:
            if u not in self.component_of:
                raise VertexNotFoundError(u)

        self.graph.add_vertex(vertex)
        for u in ins:
            self.graph.add_edge(u, vertex)
        for w in outs:
            self.graph.add_edge(vertex, w)

        out_comps = {self.component_of[w] for w in outs}
        in_comps = {self.component_of[u] for u in ins}
        cycle_comps = self._comps_between(out_comps, in_comps)
        if not cycle_comps:
            comp = self._new_component({vertex})
            return CondensationDelta(removed=(), added=(comp,))
        return self._merge(cycle_comps, extra_members={vertex})

    def delete_vertex(self, vertex: Vertex) -> CondensationDelta:
        """Delete *vertex* and all incident edges.

        If the vertex's component falls apart, the split pieces become new
        components.
        """
        comp = self.component(vertex)
        self.graph.remove_vertex(vertex)
        del self.component_of[vertex]
        remaining = self.members[comp] - {vertex}
        return self._rebuild_component(comp, remaining)

    # ------------------------------------------------------------------
    # Edge updates
    # ------------------------------------------------------------------

    def insert_edge(self, tail: Vertex, head: Vertex) -> CondensationDelta:
        """Insert the edge ``tail -> head`` between existing vertices."""
        c_tail = self.component(tail)
        c_head = self.component(head)
        if self.graph.has_edge(tail, head):
            raise EdgeExistsError(tail, head)
        self.graph.add_edge(tail, head)
        if c_tail == c_head:
            return CondensationDelta()
        cycle_comps = self._comps_between({c_head}, {c_tail})
        if cycle_comps:
            return self._merge(cycle_comps, extra_members=set())
        if self.dag.has_edge(c_tail, c_head):
            return CondensationDelta()
        # New condensation edge: downstream indices refresh the head
        # component (delete + reinsert picks up the new in-edge).
        return CondensationDelta(removed=(c_head,), added=(c_head,))

    def delete_edge(self, tail: Vertex, head: Vertex) -> CondensationDelta:
        """Delete the edge ``tail -> head``."""
        c_tail = self.component(tail)
        c_head = self.component(head)
        if not self.graph.has_edge(tail, head):
            raise EdgeNotFoundError(tail, head)
        self.graph.remove_edge(tail, head)
        if c_tail != c_head:
            # The DAG edge goes with the last member edge it stands for.
            component_of = self.component_of
            for v in self.members[c_tail]:
                for w in self.graph.iter_out(v):
                    if component_of[w] == c_head:
                        return CondensationDelta()
            return CondensationDelta(removed=(c_head,), added=(c_head,))
        # Intra-component edge: the component may split.
        return self._rebuild_component(c_tail, set(self.members[c_tail]))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _new_component(self, members: set[Vertex]) -> int:
        comp = self._next_id
        self._next_id += 1
        self.members[comp] = members
        for v in members:
            self.component_of[v] = comp
        return comp

    def _comps_between(self, sources: set[int], targets: set[int]) -> set[int]:
        """Return components C with source ->* C ->* target in the DAG.

        Sources and targets count as reachable from / reaching themselves,
        so the result is nonempty iff some source reaches some target.
        """
        if not sources or not targets:
            return set()
        forward = set(sources)
        queue: deque[int] = deque(sources)
        while queue:
            c = queue.popleft()
            for d in self.dag.iter_out(c):
                if d not in forward:
                    forward.add(d)
                    queue.append(d)
        if forward.isdisjoint(targets):
            return set()
        backward = set(targets)
        queue = deque(targets)
        while queue:
            c = queue.popleft()
            for d in self.dag.iter_in(c):
                if d in forward and d not in backward:
                    backward.add(d)
                    queue.append(d)
        return forward & backward

    def _merge(
        self, comps: set[int], extra_members: set[Vertex]
    ) -> CondensationDelta:
        """Collapse *comps* (plus *extra_members*) into one new component."""
        merged_members = set(extra_members)
        for c in comps:
            merged_members |= self.members[c]
        for c in comps:
            del self.members[c]
        new_comp = self._new_component(merged_members)
        return CondensationDelta(removed=tuple(sorted(comps)), added=(new_comp,))

    def _rebuild_component(
        self, comp: int, remaining: set[Vertex]
    ) -> CondensationDelta:
        """Replace *comp* by the SCCs of the subgraph induced on *remaining*."""
        del self.members[comp]
        if not remaining:
            return CondensationDelta(removed=(comp,), added=())
        if len(remaining) == 1:
            new_comp = self._new_component(remaining)
            return CondensationDelta(removed=(comp,), added=(new_comp,))

        sub = self.graph.subgraph(remaining)
        pieces = _sources_first(sub, strongly_connected_components(sub))
        new_ids = [self._new_component(set(piece)) for piece in pieces]
        return CondensationDelta(removed=(comp,), added=tuple(new_ids))

    # ------------------------------------------------------------------
    # Writing the DAG
    # ------------------------------------------------------------------

    def placed_neighbors(self, comp: int) -> tuple[list[int], list[int]]:
        """``(ins, outs)``: the components already in the DAG with a
        member edge into / out of *comp*, which is not in it yet.

        A component added later in the same delta gets the edge when it
        is placed itself.
        """
        component_of = self.component_of
        ins: dict[int, None] = {}
        outs: dict[int, None] = {}
        for v in self.members[comp]:
            for w in self.graph.iter_out(v):
                outs[component_of[w]] = None
            for u in self.graph.iter_in(v):
                ins[component_of[u]] = None
        dag = self.dag
        return [c for c in ins if c in dag], [c for c in outs if c in dag]

    def apply_to_dag(self, delta: CondensationDelta) -> None:
        """Write *delta* onto the DAG (for a caller with no index on it)."""
        dag = self.dag
        for comp in delta.removed:
            dag.remove_vertex(comp)
        for comp in delta.added:
            ins, outs = self.placed_neighbors(comp)
            dag.add_vertex(comp)
            for c in ins:
                dag.add_edge(c, comp)
            for c in outs:
                dag.add_edge(comp, c)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Cross-check against a from-scratch condensation (tests only)."""
        self.graph.check_invariants()
        self.dag.check_invariants()
        fresh = condense(self.graph)
        assert fresh.num_components == self.dag.num_vertices
        # Same partition of vertices into components.
        fresh_parts = {frozenset(m) for m in fresh.members.values()}
        live_parts = {frozenset(m) for m in self.members.values()}
        assert fresh_parts == live_parts
        # Same condensation edges (up to the component relabeling).
        relabel = {
            fresh.component_of[next(iter(self.members[c]))]: c
            for c in self.members
        }
        fresh_edges = {
            (relabel[t], relabel[h]) for t, h in fresh.dag.edges()
        }
        assert fresh_edges == set(self.dag.edges())
