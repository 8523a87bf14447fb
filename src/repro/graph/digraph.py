"""A mutable directed graph with adjacency sets.

:class:`DiGraph` is the storage substrate for everything else in this
library.  It keeps, for every vertex, the set of out-neighbors and the set of
in-neighbors, so that both forward and backward traversals — which the TOL
algorithms use constantly — run in time proportional to the edges touched.

Vertices are arbitrary hashable objects.  The index layers map them to dense
integers (see :mod:`repro.core.index`), but the graph itself does not care.

Design notes
------------
* Neighbor containers are ``set`` objects: O(1) membership, insertion and
  deletion, which matches the dynamic-update workloads of the paper.
* Mutating methods raise precise exceptions from :mod:`repro.errors` rather
  than silently ignoring duplicate or missing elements; benchmark code that
  wants idempotent behavior uses the ``*_if_absent`` / ``discard_*`` variants.
* Iteration order over vertices is insertion order (a ``dict`` is the vertex
  registry), which keeps generators and tests deterministic.
* Every mutation bumps a monotonically increasing :attr:`DiGraph.version`
  counter, which lets any derived structure detect staleness cheaply, and
  drops the cached :meth:`DiGraph.csr` snapshot (see :mod:`repro.graph.csr`).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from typing import Optional

from ..errors import (
    EdgeExistsError,
    EdgeNotFoundError,
    VertexExistsError,
    VertexNotFoundError,
)

__all__ = ["DiGraph"]

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


class DiGraph:
    """A directed graph with O(1) edge insertion, deletion and lookup.

    Parameters
    ----------
    edges:
        Optional iterable of ``(tail, head)`` pairs used to initialize the
        graph.  Endpoint vertices are created on demand.
    vertices:
        Optional iterable of vertices to create up front (useful for graphs
        with isolated vertices).

    Examples
    --------
    >>> g = DiGraph(edges=[("a", "b"), ("b", "c")])
    >>> g.has_edge("a", "b")
    True
    >>> sorted(g.out_neighbors("b"))
    ['c']
    >>> g.num_vertices, g.num_edges
    (3, 2)
    """

    __slots__ = ("_succ", "_pred", "_num_edges", "_version", "_csr_cache")

    def __init__(
        self,
        edges: Optional[Iterable[Edge]] = None,
        vertices: Optional[Iterable[Vertex]] = None,
    ) -> None:
        # _succ[v] = set of out-neighbors, _pred[v] = set of in-neighbors.
        # The key sets of both dicts are always identical.
        self._succ: dict[Vertex, set[Vertex]] = {}
        self._pred: dict[Vertex, set[Vertex]] = {}
        self._num_edges = 0
        self._version = 0
        self._csr_cache = None
        if vertices is not None:
            for v in vertices:
                self.add_vertex_if_absent(v)
        if edges is not None:
            for tail, head in edges:
                self.add_edge_if_absent(tail, head)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices currently in the graph."""
        return len(self._succ)

    @property
    def num_edges(self) -> int:
        """Number of directed edges currently in the graph."""
        return self._num_edges

    @property
    def version(self) -> int:
        """Mutation counter: increments on every structural change.

        Two reads returning the same value guarantee the graph was not
        mutated in between.
        """
        return self._version

    def csr(self):
        """Return a CSR snapshot of the graph, cached until mutation.

        The first call packs the adjacency into a
        :class:`~repro.graph.csr.CSRGraph` (one O(|V|+|E|) pass); later
        calls return the same object until a mutation or
        :meth:`release_csr` drops it.  The snapshot is immutable — it
        never reflects mutations made after it was taken.  The build
        pipeline (order strategy, then Butterfly) shares it; the update
        kernels walk the live adjacency instead.
        """
        snap = self._csr_cache
        if snap is None:
            from .csr import csr_snapshot

            snap = self._csr_cache = csr_snapshot(self)
        return snap

    def release_csr(self) -> None:
        """Drop the cached :meth:`csr` snapshot (its last user, the
        Butterfly build, calls this once it holds the snapshot)."""
        self._csr_cache = None

    def __len__(self) -> int:
        return len(self._succ)

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._succ

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._succ)

    def has_vertex(self, vertex: Vertex) -> bool:
        """Return ``True`` if *vertex* is in the graph."""
        return vertex in self._succ

    def has_edge(self, tail: Vertex, head: Vertex) -> bool:
        """Return ``True`` if the directed edge ``tail -> head`` exists."""
        succ = self._succ.get(tail)
        return succ is not None and head in succ

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices in insertion order."""
        return iter(self._succ)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges as ``(tail, head)`` pairs."""
        for tail, heads in self._succ.items():
            for head in heads:
                yield (tail, head)

    def out_neighbors(self, vertex: Vertex) -> frozenset[Vertex]:
        """Return the out-neighbors of *vertex* as a frozen snapshot."""
        return frozenset(self._out(vertex))

    def in_neighbors(self, vertex: Vertex) -> frozenset[Vertex]:
        """Return the in-neighbors of *vertex* as a frozen snapshot."""
        return frozenset(self._in(vertex))

    def iter_out(self, vertex: Vertex) -> Iterator[Vertex]:
        """Iterate out-neighbors without copying.

        The graph must not be mutated while the iterator is live.
        """
        return iter(self._out(vertex))

    def iter_in(self, vertex: Vertex) -> Iterator[Vertex]:
        """Iterate in-neighbors without copying.

        The graph must not be mutated while the iterator is live.
        """
        return iter(self._in(vertex))

    def out_degree(self, vertex: Vertex) -> int:
        """Number of outgoing edges of *vertex*."""
        return len(self._out(vertex))

    def in_degree(self, vertex: Vertex) -> int:
        """Number of incoming edges of *vertex*."""
        return len(self._in(vertex))

    def degree(self, vertex: Vertex) -> int:
        """Total degree (in + out) of *vertex*."""
        return len(self._out(vertex)) + len(self._in(vertex))

    def average_degree(self) -> float:
        """Average out-degree, ``|E| / |V|`` (0.0 for the empty graph)."""
        if not self._succ:
            return 0.0
        return self._num_edges / len(self._succ)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_vertex(self, vertex: Vertex) -> None:
        """Add an isolated vertex.

        Raises
        ------
        VertexExistsError
            If *vertex* is already present.
        """
        if vertex in self._succ:
            raise VertexExistsError(vertex)
        self._succ[vertex] = set()
        self._pred[vertex] = set()
        self._version += 1
        self._csr_cache = None

    def add_vertex_if_absent(self, vertex: Vertex) -> bool:
        """Add *vertex* if missing; return ``True`` if it was added."""
        if vertex in self._succ:
            return False
        self._succ[vertex] = set()
        self._pred[vertex] = set()
        self._version += 1
        self._csr_cache = None
        return True

    def add_edge(self, tail: Vertex, head: Vertex) -> None:
        """Add the directed edge ``tail -> head``, creating endpoints.

        Self-loops are permitted by the graph store (the DAG layers reject
        them separately).

        Raises
        ------
        EdgeExistsError
            If the edge is already present.
        """
        self.add_vertex_if_absent(tail)
        self.add_vertex_if_absent(head)
        if head in self._succ[tail]:
            raise EdgeExistsError(tail, head)
        self._succ[tail].add(head)
        self._pred[head].add(tail)
        self._num_edges += 1
        self._version += 1
        self._csr_cache = None

    def add_edge_if_absent(self, tail: Vertex, head: Vertex) -> bool:
        """Add the edge if missing; return ``True`` if it was added."""
        self.add_vertex_if_absent(tail)
        self.add_vertex_if_absent(head)
        if head in self._succ[tail]:
            return False
        self._succ[tail].add(head)
        self._pred[head].add(tail)
        self._num_edges += 1
        self._version += 1
        self._csr_cache = None
        return True

    def remove_edge(self, tail: Vertex, head: Vertex) -> None:
        """Remove the directed edge ``tail -> head``.

        Raises
        ------
        EdgeNotFoundError
            If the edge does not exist.
        """
        succ = self._succ.get(tail)
        if succ is None or head not in succ:
            raise EdgeNotFoundError(tail, head)
        succ.remove(head)
        self._pred[head].remove(tail)
        self._num_edges -= 1
        self._version += 1
        self._csr_cache = None

    def discard_edge(self, tail: Vertex, head: Vertex) -> bool:
        """Remove the edge if present; return ``True`` if it was removed."""
        succ = self._succ.get(tail)
        if succ is None or head not in succ:
            return False
        succ.remove(head)
        self._pred[head].remove(tail)
        self._num_edges -= 1
        self._version += 1
        self._csr_cache = None
        return True

    def remove_vertex(self, vertex: Vertex) -> None:
        """Remove *vertex* and all edges incident to it.

        Raises
        ------
        VertexNotFoundError
            If *vertex* is not in the graph.
        """
        out = self._succ.get(vertex)
        if out is None:
            raise VertexNotFoundError(vertex)
        inn = self._pred[vertex]
        for head in out:
            if head != vertex:
                self._pred[head].remove(vertex)
        for tail in inn:
            if tail != vertex:
                self._succ[tail].remove(vertex)
        # A self-loop contributes one edge but appears in both sets.
        removed = len(out) + len(inn)
        if vertex in out:
            removed -= 1
        self._num_edges -= removed
        del self._succ[vertex]
        del self._pred[vertex]
        self._version += 1
        self._csr_cache = None

    def discard_vertex(self, vertex: Vertex) -> bool:
        """Remove *vertex* if present; return ``True`` if it was removed."""
        if vertex not in self._succ:
            return False
        self.remove_vertex(vertex)
        return True

    def clear(self) -> None:
        """Remove all vertices and edges."""
        self._succ.clear()
        self._pred.clear()
        self._num_edges = 0
        self._version += 1
        self._csr_cache = None

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def copy(self) -> "DiGraph":
        """Return an independent deep copy of the graph."""
        clone = DiGraph()
        clone._succ = {v: set(heads) for v, heads in self._succ.items()}
        clone._pred = {v: set(tails) for v, tails in self._pred.items()}
        clone._num_edges = self._num_edges
        return clone

    def reverse(self) -> "DiGraph":
        """Return a new graph with every edge direction flipped."""
        rev = DiGraph()
        rev._succ = {v: set(tails) for v, tails in self._pred.items()}
        rev._pred = {v: set(heads) for v, heads in self._succ.items()}
        rev._num_edges = self._num_edges
        return rev

    def subgraph(self, keep: Iterable[Vertex]) -> "DiGraph":
        """Return the induced subgraph on the vertices in *keep*.

        Vertices in *keep* that are not in the graph are ignored.
        """
        keep_set = {v for v in keep if v in self._succ}
        sub = DiGraph(vertices=keep_set)
        for tail in keep_set:
            for head in self._succ[tail]:
                if head in keep_set:
                    sub.add_edge_if_absent(tail, head)
        return sub

    # ------------------------------------------------------------------
    # Equality and debugging
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return self._succ == other._succ

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(|V|={self.num_vertices}, "
            f"|E|={self.num_edges})"
        )

    def check_invariants(self) -> None:
        """Validate internal consistency (for tests); raise AssertionError."""
        assert self._succ.keys() == self._pred.keys()
        edge_count = 0
        for tail, heads in self._succ.items():
            for head in heads:
                assert tail in self._pred[head], (tail, head)
                edge_count += 1
        for head, tails in self._pred.items():
            for tail in tails:
                assert head in self._succ[tail], (tail, head)
        assert edge_count == self._num_edges

    # ------------------------------------------------------------------
    # Internal accessors
    # ------------------------------------------------------------------

    def _out(self, vertex: Vertex) -> set[Vertex]:
        try:
            return self._succ[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def _in(self, vertex: Vertex) -> set[Vertex]:
        try:
            return self._pred[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None
