"""Public index facades.

Two layers:

* :class:`TOLIndex` — the paper's object: a TOL index over a DAG, with
  Butterfly construction (Algorithm 5), dynamic vertex insertion
  (Algorithms 1–3), deletion (Algorithm 4) and iterative label reduction
  (Section 6).  Its update kernels write the DAG they walk;
  :meth:`TOLIndex.build` takes a private copy of the caller's DAG.

* :class:`ReachabilityIndex` — the end-user API for *arbitrary* directed
  graphs (cycles allowed): it maintains the SCC condensation
  (:class:`~repro.graph.condensation.DynamicCondensation`, the Section-2
  reduction kept incremental per [32]) and replays every condensation
  change as TOL vertex deletions and insertions on an internal
  :class:`TOLIndex` that walks and writes the condensation's own DAG.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from typing import Optional, Union

from ..errors import IndexStateError, NotADagError, VertexNotFoundError
from ..graph.condensation import CondensationDelta, DynamicCondensation
from ..graph.digraph import DiGraph
from .butterfly import butterfly_build
from .insertion import Placement, choose_level, insert_vertex
from .deletion import delete_vertex
from .labeling import TOLLabeling
from .order import LevelOrder
from .orders import OrderStrategy, resolve_order_strategy
from .reduction import ReductionReport, reduce_labels

__all__ = ["TOLIndex", "ReachabilityIndex"]

Vertex = Hashable


class TOLIndex:
    """A dynamic Total Order Labeling reachability index over a DAG.

    Build one with :meth:`build`; query with :meth:`query`; update with
    :meth:`insert_vertex` / :meth:`delete_vertex`; tune with
    :meth:`reduce_labels`.

    Examples
    --------
    >>> from repro.graph import figure1_dag
    >>> index = TOLIndex.build(figure1_dag(), order="butterfly-u")
    >>> index.query("e", "c")
    True
    >>> index.insert_vertex("z", in_neighbors=["c"])
    >>> index.query("e", "z")
    True
    >>> index.delete_vertex("z")
    """

    def __init__(self, graph: DiGraph, labeling: TOLLabeling) -> None:
        """Wrap an existing (graph, labeling) pair; prefer :meth:`build`."""
        self._graph = graph
        self._labeling = labeling

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        graph: DiGraph,
        *,
        order: Union[str, OrderStrategy, LevelOrder] = "butterfly-u",
    ) -> "TOLIndex":
        """Build the index for a DAG with Butterfly (Algorithm 5).

        Parameters
        ----------
        graph:
            The DAG to index.  A private copy is taken.
        order:
            A level order for the index: a strategy name from
            :data:`~repro.core.orders.ORDER_STRATEGIES` (``"butterfly-u"``,
            ``"butterfly-l"``, ``"topological"`` for TF, ``"degree"`` for
            DL/PLL, ``"hierarchical"`` for HL, ...), a callable
            ``graph -> LevelOrder``, or a ready :class:`LevelOrder`.

        Raises
        ------
        NotADagError
            If *graph* has a cycle (use :class:`ReachabilityIndex` for
            general graphs).  Raised by the order strategy or the build
            itself.
        TypeError
            If the order strategy returns anything but a
            :class:`LevelOrder`.
        """
        return cls._build_on(graph.copy(), order)

    @classmethod
    def _build_on(
        cls, graph: DiGraph, order: Union[str, OrderStrategy, LevelOrder]
    ) -> "TOLIndex":
        """:meth:`build` without the copy: the index walks *graph*."""
        if isinstance(order, LevelOrder):
            level_order = order
        else:
            level_order = resolve_order_strategy(order)(graph)
            if not isinstance(level_order, LevelOrder):
                # A plain sequence builds, but the update kernels need the
                # order's level keys: fail here, not on the first delete.
                raise TypeError(
                    f"order strategy must return a LevelOrder, got "
                    f"{type(level_order).__name__}"
                )
        return cls(graph, butterfly_build(graph, level_order))

    # ------------------------------------------------------------------
    # Queries and introspection
    # ------------------------------------------------------------------

    def query(self, s: Vertex, t: Vertex) -> bool:
        """Return ``True`` iff ``s`` can reach ``t``.

        Raises
        ------
        UnknownVertexError
            If either endpoint has never been inserted (a
            :class:`KeyError` subclass, so mapping-style call sites work).
        """
        return self._labeling.query(s, t)

    def query_many(
        self, pairs: Iterable[tuple[Vertex, Vertex]]
    ) -> list[bool]:
        """Answer a batch of queries, in input order."""
        return self._labeling.query_many(pairs)

    def witness(self, s: Vertex, t: Vertex) -> Optional[Vertex]:
        """Return one witness vertex for ``s -> t``, or ``None``."""
        return self._labeling.witness(s, t)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._labeling

    @property
    def num_vertices(self) -> int:
        """Number of indexed vertices."""
        return self._graph.num_vertices

    @property
    def num_edges(self) -> int:
        """Number of edges in the indexed DAG."""
        return self._graph.num_edges

    def size(self) -> int:
        """Total label count ``|L|``."""
        return self._labeling.size()

    def size_bytes(self) -> int:
        """Index size in bytes (4 bytes per label, as in Figure 5)."""
        return self._labeling.size_bytes()

    @property
    def order(self) -> LevelOrder:
        """The live level order (treat as read-only)."""
        return self._labeling.order

    @property
    def labeling(self) -> TOLLabeling:
        """The live labeling (treat as read-only)."""
        return self._labeling

    def graph_copy(self) -> DiGraph:
        """Return a copy of the indexed DAG."""
        return self._graph.copy()

    def edges(self) -> Iterator[tuple[Vertex, Vertex]]:
        """Iterate the indexed DAG's edges without copying the graph.

        The DAG must not change meanwhile.  Heads come in the order of a
        graph copy (each vertex's ``out_neighbors`` snapshot), the order
        packs store their edges in.
        """
        graph = self._graph
        return (
            (tail, head) for tail in graph for head in graph.out_neighbors(tail)
        )

    def in_labels(self, v: Vertex) -> frozenset[Vertex]:
        """``Lin(v)`` as an immutable snapshot."""
        return frozenset(self._labeling.label_in[v])

    def out_labels(self, v: Vertex) -> frozenset[Vertex]:
        """``Lout(v)`` as an immutable snapshot."""
        return frozenset(self._labeling.label_out[v])

    # ------------------------------------------------------------------
    # Updates (Section 5)
    # ------------------------------------------------------------------

    def insert_vertex(
        self,
        v: Vertex,
        in_neighbors: Iterable[Vertex] = (),
        out_neighbors: Iterable[Vertex] = (),
        *,
        placement: Optional[Placement] = None,
    ) -> None:
        """Insert vertex *v* with the given neighbor sets (Algorithms 1–3).

        ``placement=None`` (default) picks the index-size-minimizing level
        with Algorithm 3; ``placement="bottom"`` is the cheap O(1)-choice
        alternative the paper discusses.

        Raises
        ------
        NotADagError
            If the insertion would create a cycle.
        IndexStateError
            If *v* exists or a neighbor does not.
        """
        if v in self._labeling:
            raise IndexStateError(f"vertex {v!r} is already indexed")
        ins = list(dict.fromkeys(in_neighbors))
        outs = list(dict.fromkeys(out_neighbors))
        # Cycle pre-check via the index itself: the only new paths go
        # through v, so the insertion creates a cycle iff some
        # out-neighbor already reaches some in-neighbor.  One batch of
        # |ins|·|outs| label intersections instead of a full-graph
        # toposort — the same trick insert_edge uses; the error names
        # the first offending pair in (out, in) order.  (Skipped when a
        # neighbor is unindexed; insert_vertex below raises
        # IndexStateError for that before touching the labeling.)
        labeling = self._labeling
        if all(u in labeling for u in ins) and all(w in labeling for w in outs):
            pairs = [(w, u) for w in outs for u in ins]
            for (w, u), cyclic in zip(pairs, labeling.query_many(pairs)):
                if cyclic:
                    raise NotADagError(
                        f"inserting {v!r} would create a cycle "
                        f"({u!r} -> {v!r} -> {w!r} -> ... -> {u!r})"
                    )
        self._graph.add_vertex(v)
        try:
            for u in ins:
                self._graph.add_edge(u, v)
            for w in outs:
                self._graph.add_edge(v, w)
        except Exception:
            self._graph.discard_vertex(v)
            raise
        insert_vertex(self._graph, self._labeling, v, placement=placement)

    def delete_vertex(self, v: Vertex) -> None:
        """Delete vertex *v* and its incident edges (Algorithm 4)."""
        if v not in self._labeling:
            raise IndexStateError(f"vertex {v!r} is not indexed")
        delete_vertex(self._graph, self._labeling, v)

    def insert_edge(self, tail: Vertex, head: Vertex) -> None:
        """Insert the edge ``tail -> head`` between indexed vertices.

        The paper defines vertex-level updates only; an edge update is
        realized as deleting the head vertex (Algorithm 4) and re-inserting
        it *at its old level* with the new adjacency (Algorithms 1–2) — the
        level order is untouched, so the result is exactly the TOL index of
        the updated DAG under the same order.

        Raises
        ------
        NotADagError
            If the edge would create a cycle.
        IndexStateError
            If an endpoint is missing or the edge already exists.
        """
        if self._graph.has_edge(tail, head):
            raise IndexStateError(
                f"edge ({tail!r} -> {head!r}) is already indexed"
            )
        if tail not in self._labeling or head not in self._labeling:
            missing = tail if tail not in self._labeling else head
            raise IndexStateError(f"vertex {missing!r} is not indexed")
        if self._labeling.query(head, tail):
            raise NotADagError(
                f"edge ({tail!r} -> {head!r}) would create a cycle"
            )
        new_ins = set(self._graph.in_neighbors(head)) | {tail}
        self._reindex_at_same_level(head, new_ins, self._graph.out_neighbors(head))

    def delete_edge(self, tail: Vertex, head: Vertex) -> None:
        """Delete the edge ``tail -> head`` (mirror of :meth:`insert_edge`).

        Raises
        ------
        IndexStateError
            If the edge is not indexed.
        """
        if not self._graph.has_edge(tail, head):
            raise IndexStateError(f"edge ({tail!r} -> {head!r}) is not indexed")
        new_ins = set(self._graph.in_neighbors(head)) - {tail}
        self._reindex_at_same_level(head, new_ins, self._graph.out_neighbors(head))

    def _reindex_at_same_level(self, v: Vertex, new_ins, new_outs) -> None:
        """Delete *v* and re-insert it at its old level with new adjacency.

        The deletion runs while the *old* adjacency is still in the graph,
        so every vertex whose labels depended on paths through ``v`` (via
        old edges) is inside ``B+(v)``/``B-(v)`` and gets rebuilt; the
        re-insertion then introduces the *new* adjacency exactly.
        """
        order = self._labeling.order
        successor = order.successor(v)
        delete_vertex(self._graph, self._labeling, v)
        self._graph.add_vertex(v)
        for u in new_ins:
            self._graph.add_edge(u, v)
        for w in new_outs:
            self._graph.add_edge(v, w)
        placement: Placement = (
            "bottom" if successor is None else ("above", successor)
        )
        insert_vertex(self._graph, self._labeling, v, placement=placement)

    def descendants(self, v: Vertex) -> set[Vertex]:
        """All vertices reachable from *v* (excluding *v*), via the graph."""
        from ..graph.traversal import forward_reachable

        if v not in self._labeling:
            raise IndexStateError(f"vertex {v!r} is not indexed")
        return forward_reachable(self._graph, v)

    def ancestors(self, v: Vertex) -> set[Vertex]:
        """All vertices that can reach *v* (excluding *v*), via the graph."""
        from ..graph.traversal import backward_reachable

        if v not in self._labeling:
            raise IndexStateError(f"vertex {v!r} is not indexed")
        return backward_reachable(self._graph, v)

    def optimal_level(
        self,
        v: Vertex,
        in_neighbors: Iterable[Vertex] = (),
        out_neighbors: Iterable[Vertex] = (),
    ):
        """Dry-run Algorithm 3 for a hypothetical new vertex *v*.

        Returns the :class:`~repro.core.insertion.LevelChoice` the sweep
        would pick, leaving the index unchanged (the vertex is inserted at
        the bottom, evaluated, and removed again).
        """
        self.insert_vertex(v, in_neighbors, out_neighbors, placement="bottom")
        try:
            return choose_level(self._labeling, v)
        finally:
            self.delete_vertex(v)

    # ------------------------------------------------------------------
    # Label reduction (Section 6)
    # ------------------------------------------------------------------

    def reduce_labels(self, *, max_rounds: int = 1) -> ReductionReport:
        """Shrink the index by re-positioning vertices (Section 6)."""
        return reduce_labels(self._graph, self._labeling, max_rounds=max_rounds)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(|V|={self.num_vertices}, "
            f"|E|={self.num_edges}, |L|={self.size()})"
        )


class ReachabilityIndex:
    """Dynamic reachability queries on arbitrary directed graphs.

    Wraps a :class:`TOLIndex` over the live SCC condensation, so cyclic
    inputs and cycle-creating updates are handled transparently (the
    Section-2 reduction plus the paper's pointer to Dagger-style SCC
    maintenance).  ``tol`` walks ``condensation.dag`` itself.

    Examples
    --------
    >>> g = DiGraph(edges=[("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
    >>> idx = ReachabilityIndex(g)
    >>> idx.query("a", "d"), idx.query("d", "a")
    (True, False)
    >>> idx.insert_edge("d", "b")       # merges {a,b,c} with d
    >>> idx.query("d", "a")
    True
    """

    def __init__(
        self,
        graph: Optional[DiGraph] = None,
        *,
        order: Union[str, OrderStrategy] = "butterfly-u",
    ) -> None:
        self._condensation = DynamicCondensation(
            graph.copy() if graph is not None else DiGraph()
        )
        # Resolve eagerly so a bad name/type fails here with the helpful
        # error, exactly as TOLIndex.build does (uniform across facades).
        self._tol = TOLIndex._build_on(
            self._condensation.dag, resolve_order_strategy(order)
        )

    @classmethod
    def restore(
        cls, condensation: DynamicCondensation, tol: TOLIndex
    ) -> "ReachabilityIndex":
        """Adopt a prebuilt condensation + TOL pair without rebuilding.

        The deserialization path (``.tolf`` packs,
        :func:`repro.core.serialize.load_index`) already holds both
        halves — *tol* must index a DAG equal to ``condensation.dag``,
        and walks that DAG object from here on.  Updates replay through
        the same kernels as a built index; the level order of later
        inserts is chosen by Algorithm 3, never by an order strategy.
        """
        self = cls.__new__(cls)
        self._condensation = condensation
        tol._graph = condensation.dag
        self._tol = tol
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, s: Vertex, t: Vertex) -> bool:
        """Return ``True`` iff ``s`` can reach ``t`` in the original graph.

        Raises
        ------
        VertexNotFoundError
            If either endpoint is not in the graph (a :class:`KeyError`
            subclass, so mapping-style call sites work).
        """
        cs = self._condensation.component(s)
        ct = self._condensation.component(t)
        if cs == ct:
            return True
        return self._tol.query(cs, ct)

    def query_many(
        self, pairs: Iterable[tuple[Vertex, Vertex]]
    ) -> list[bool]:
        """Answer a batch of queries, in input order.

        Maps every pair to its component pair in one pass, then answers
        them with one :meth:`TOLIndex.query_many` call; a same-SCC pair
        maps both ends to one id, which the kernel answers ``True``.

        Raises
        ------
        VertexNotFoundError
            If any endpoint is not in the graph.
        """
        component_of = self._condensation.component_of
        try:
            components = [(component_of[s], component_of[t]) for s, t in pairs]
        except KeyError as missing:
            raise VertexNotFoundError(missing.args[0]) from None
        return self._tol.query_many(components)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._condensation.component_of

    @property
    def num_vertices(self) -> int:
        """Number of vertices in the original graph."""
        return self._condensation.graph.num_vertices

    @property
    def num_edges(self) -> int:
        """Number of edges in the original graph."""
        return self._condensation.graph.num_edges

    def size(self) -> int:
        """Label count of the underlying TOL index."""
        return self._tol.size()

    def size_bytes(self) -> int:
        """Size in bytes of the underlying TOL index."""
        return self._tol.size_bytes()

    @property
    def tol(self) -> TOLIndex:
        """The underlying TOL index over the condensation (read-only)."""
        return self._tol

    @property
    def condensation(self) -> DynamicCondensation:
        """The live condensation (read-only)."""
        return self._condensation

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def insert_vertex(
        self,
        v: Vertex,
        in_neighbors: Iterable[Vertex] = (),
        out_neighbors: Iterable[Vertex] = (),
    ) -> None:
        """Insert vertex *v*; neighbors must already exist."""
        delta = self._condensation.insert_vertex(v, in_neighbors, out_neighbors)
        self._apply(delta)

    def delete_vertex(self, v: Vertex) -> None:
        """Delete vertex *v* and its incident edges."""
        delta = self._condensation.delete_vertex(v)
        self._apply(delta)

    def insert_edge(self, tail: Vertex, head: Vertex) -> None:
        """Insert the edge ``tail -> head`` (may merge SCCs)."""
        delta = self._condensation.insert_edge(tail, head)
        self._apply(delta)

    def delete_edge(self, tail: Vertex, head: Vertex) -> None:
        """Delete the edge ``tail -> head`` (may split an SCC)."""
        delta = self._condensation.delete_edge(tail, head)
        self._apply(delta)

    def reduce_labels(self, *, max_rounds: int = 1) -> ReductionReport:
        """Run Section-6 label reduction on the underlying TOL index."""
        return self._tol.reduce_labels(max_rounds=max_rounds)

    # ------------------------------------------------------------------
    # Derived queries
    # ------------------------------------------------------------------

    def witness(self, s: Vertex, t: Vertex) -> Optional[Vertex]:
        """Return one vertex on some ``s ⇝ t`` path, or ``None``.

        Within one strongly connected component the witness is ``s``
        itself; across components, the TOL witness component is mapped
        back to one of its member vertices.
        """
        cs = self._condensation.component(s)
        ct = self._condensation.component(t)
        if cs == ct:
            return s
        comp = self._tol.witness(cs, ct)
        if comp is None:
            return None
        return next(iter(self._condensation.members[comp]))

    def descendants(self, v: Vertex) -> set[Vertex]:
        """All vertices reachable from *v*, excluding *v* itself.

        The rest of ``v``'s strongly connected component is included (its
        members are mutually reachable).
        """
        comp = self._condensation.component(v)
        members = self._condensation.members
        out = set(members[comp])
        for c in self._tol.descendants(comp):
            out |= members[c]
        out.discard(v)
        return out

    def ancestors(self, v: Vertex) -> set[Vertex]:
        """All vertices that can reach *v*, excluding *v* itself."""
        comp = self._condensation.component(v)
        members = self._condensation.members
        out = set(members[comp])
        for c in self._tol.ancestors(comp):
            out |= members[c]
        out.discard(v)
        return out

    # ------------------------------------------------------------------
    # Delta replay
    # ------------------------------------------------------------------

    def _apply(self, delta: CondensationDelta) -> None:
        """Replay a condensation delta onto the TOL index, whose kernels
        write the DAG: a delete walks the old adjacency, then drops it."""
        for comp in delta.removed:
            self._tol.delete_vertex(comp)
        placed_neighbors = self._condensation.placed_neighbors
        for comp in delta.added:
            self._tol.insert_vertex(comp, *placed_neighbors(comp))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(|V|={self.num_vertices}, "
            f"|E|={self.num_edges}, components="
            f"{self._condensation.dag.num_vertices}, |L|={self.size()})"
        )
