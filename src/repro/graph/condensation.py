"""Incrementally maintained SCC condensation for dynamic graphs.

The TOL algorithms (Section 5 of the paper) require that the graph being
indexed is a DAG and that every update keeps it one.  The paper handles the
general case by "incrementally maintaining the strongly connected components
in G, as discussed in [32]" (Dagger).  :class:`DynamicCondensation` is that
substrate: it owns the user's (possibly cyclic) graph, keeps its SCC
condensation up to date under vertex and edge updates, and reports every
change to the condensed DAG as a :class:`CondensationDelta` — a list of
condensation vertices to delete followed by a list to (re)insert.  The
facade index (:mod:`repro.core.index`) replays each delta onto the TOL
index using the paper's vertex-deletion and vertex-insertion algorithms.

Component ids are dense-ish integers drawn from a monotonically increasing
counter and are never reused, so a delta's ``removed`` and ``added`` lists
are unambiguous even when a component is conceptually "the same" before and
after (e.g. an edge insertion that merely adds a condensation edge removes
and re-adds the head component).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field
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

    Attributes
    ----------
    removed:
        Component ids that must be deleted from any index built on the
        condensation, in order.
    added:
        Component ids that must be inserted afterwards, in order.  Their
        adjacency should be read from the condensation *after* the update.
    """

    removed: tuple[int, ...] = ()
    added: tuple[int, ...] = ()

    def is_empty(self) -> bool:
        """Return ``True`` when the condensed DAG was not affected."""
        return not self.removed and not self.added


@dataclass
class _ComponentEdges:
    """Multiplicity-counted adjacency between components."""

    # (tail_comp, head_comp) -> number of original-graph edges between them
    counts: dict[tuple[int, int], int] = field(default_factory=dict)

    def add(self, dag: DiGraph, tail: int, head: int) -> None:
        """Count one member edge; materialize the DAG edge on 0 -> 1."""
        key = (tail, head)
        new = self.counts.get(key, 0) + 1
        self.counts[key] = new
        if new == 1:
            dag.add_edge(tail, head)

    def remove(self, dag: DiGraph, tail: int, head: int) -> None:
        """Uncount one member edge; drop the DAG edge on 1 -> 0."""
        key = (tail, head)
        remaining = self.counts[key] - 1
        if remaining:
            self.counts[key] = remaining
        else:
            del self.counts[key]
            dag.remove_edge(tail, head)

    def drop_component(self, dag: DiGraph, comp: int) -> None:
        """Forget every count touching *comp* and detach it from the DAG."""
        for other in dag.out_neighbors(comp):
            del self.counts[(comp, other)]
        for other in dag.in_neighbors(comp):
            del self.counts[(other, comp)]
        dag.remove_vertex(comp)


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
    >>> dc.dag.num_vertices
    1
    >>> len(delta.removed), len(delta.added)
    (3, 1)
    """

    def __init__(self, graph: DiGraph | None = None) -> None:
        self.graph = graph if graph is not None else DiGraph()
        initial = condense(self.graph)
        # Rebuild the DAG edge by edge through the multiplicity counter so
        # counter and DAG stay in lockstep from the start.
        self.dag = DiGraph(vertices=initial.members.keys())
        self.component_of: dict[Vertex, int] = dict(initial.component_of)
        self.members: dict[int, set[Vertex]] = {
            cid: set(vs) for cid, vs in initial.members.items()
        }
        self._next_id = initial.num_components
        self._edges = _ComponentEdges()
        for tail, head in self.graph.edges():
            c_tail = self.component_of[tail]
            c_head = self.component_of[head]
            if c_tail != c_head:
                self._edges.add(self.dag, c_tail, c_head)

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
        self.dag = DiGraph(vertices=members.keys())
        if next_id <= max(members, default=-1):
            raise ValueError(f"next component id {next_id} is already in use")
        self._next_id = next_id
        self._edges = _ComponentEdges()
        for tail, head in graph.edges():
            c_tail = self.component_of[tail]
            c_head = self.component_of[head]
            if c_tail != c_head:
                self._edges.add(self.dag, c_tail, c_head)
        return self

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
            self._recount_component(comp)
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
        had_edge = self.dag.has_edge(c_tail, c_head)
        self._edges.add(self.dag, c_tail, c_head)
        if had_edge:
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
            still_there = self.dag.has_edge(c_tail, c_head)
            self._edges.remove(self.dag, c_tail, c_head)
            lost_edge = still_there and not self.dag.has_edge(c_tail, c_head)
            if not lost_edge:
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
        self.dag.add_vertex(comp)
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
            self._edges.drop_component(self.dag, c)
            del self.members[c]
        new_comp = self._new_component(merged_members)
        self._recount_component(new_comp)
        return CondensationDelta(removed=tuple(sorted(comps)), added=(new_comp,))

    def _rebuild_component(
        self, comp: int, remaining: set[Vertex]
    ) -> CondensationDelta:
        """Replace *comp* by the SCCs of the subgraph induced on *remaining*."""
        self._edges.drop_component(self.dag, comp)
        del self.members[comp]
        if not remaining:
            return CondensationDelta(removed=(comp,), added=())
        if len(remaining) == 1:
            only = next(iter(remaining))
            new_comp = self._new_component({only})
            self._recount_component(new_comp)
            return CondensationDelta(removed=(comp,), added=(new_comp,))

        sub = self.graph.subgraph(remaining)
        pieces = _sources_first(sub, strongly_connected_components(sub))
        new_ids = [self._new_component(set(piece)) for piece in pieces]
        self._recount_components(new_ids)
        return CondensationDelta(removed=(comp,), added=tuple(new_ids))

    def _recount_component(self, comp: int) -> None:
        """Rebuild DAG edge counts for all edges incident to *comp*."""
        self._recount_components([comp])

    def _recount_components(self, comps: list[int]) -> None:
        """Rebuild DAG edge counts for all edges incident to *comps*.

        Edges between two components of the batch are counted once (via
        the tail's outgoing scan); incoming edges are only counted when
        their tail lies outside the batch.
        """
        batch = set(comps)
        for comp in comps:
            for v in self.members[comp]:
                for w in self.graph.iter_out(v):
                    c_w = self.component_of[w]
                    if c_w != comp:
                        self._edges.add(self.dag, comp, c_w)
                for u in self.graph.iter_in(v):
                    c_u = self.component_of[u]
                    if c_u != comp and c_u not in batch:
                        self._edges.add(self.dag, c_u, comp)

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
        # Edge counts match the graph.
        from collections import Counter

        expected = Counter()
        for tail, head in self.graph.edges():
            ct, ch = self.component_of[tail], self.component_of[head]
            if ct != ch:
                expected[(ct, ch)] += 1
        assert dict(expected) == self._edges.counts
