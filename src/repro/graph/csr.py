"""CSRGraph: an immutable int-indexed snapshot of a :class:`DiGraph`.

The construction algorithms — Butterfly's peeling sweeps (Algorithm 5)
and the BU/BL score sweeps of Section 7.1 — are traversal-heavy: they
visit every edge many times.  Walking
:class:`~repro.graph.digraph.DiGraph`'s dict-of-``set`` adjacency pays a
hash lookup and a generator frame per edge visit.  :class:`CSRGraph`
packs the same graph once into flat ``array('i')`` buffers so those
sweeps become integer loops over contiguous memory (mirroring the layout
:mod:`repro.core.frozen` uses for serving):

* vertices are interned to dense ids ``0..n-1`` in graph insertion order
  by a :class:`~repro.core.intern.VertexInterner` (the same id machinery
  the label storage uses);
* ``out_targets``/``in_targets`` hold every adjacency contiguously,
  sorted by id per vertex; ``out_offsets``/``in_offsets`` (``array('l')``,
  ``n + 1`` entries) delimit each vertex's slice, so forward *and*
  reverse traversals are both O(edges touched) with no hashing;
* the snapshot is built in one O(|V| + |E|) pass and is **immutable**:
  it describes the graph at snapshot time and never tracks later
  mutations.

Snapshot caching
----------------
:meth:`DiGraph.csr() <repro.graph.digraph.DiGraph.csr>` caches the
snapshot on the graph until the next mutation drops it, so an order
computation followed by a Butterfly build shares one packing pass.  The
build, its last user, releases it (:meth:`DiGraph.release_csr`), so an
indexed graph holds no snapshot.  The update kernels never pack one:
they walk the live adjacency.
"""

from __future__ import annotations

from array import array
from collections.abc import Hashable, Iterator
from typing import Optional

from ..core.intern import VertexInterner
from ..errors import NotADagError

__all__ = ["CSRGraph", "csr_snapshot"]

Vertex = Hashable


class CSRGraph:
    """Read-only CSR view of a directed graph (see module docstring).

    Build one with :func:`csr_snapshot` or (cached) ``graph.csr()``.

    Examples
    --------
    >>> from repro.graph.digraph import DiGraph
    >>> g = DiGraph(edges=[("a", "b"), ("a", "c"), ("b", "c")])
    >>> snap = g.csr()
    >>> snap.num_vertices, snap.num_edges
    (3, 3)
    >>> a = snap.interner.id_of("a")
    >>> list(snap.out_targets[snap.out_offsets[a]:snap.out_offsets[a + 1]])
    [1, 2]
    """

    __slots__ = (
        "interner",
        "num_vertices",
        "num_edges",
        "out_offsets",
        "out_targets",
        "in_offsets",
        "in_targets",
        "version",
        "_topo_ids",
    )

    def __init__(
        self,
        interner: VertexInterner,
        out_offsets: array,
        out_targets: array,
        in_offsets: array,
        in_targets: array,
        version: int = 0,
    ) -> None:
        self.interner = interner
        self.num_vertices = len(interner)
        self.num_edges = len(out_targets)
        self.out_offsets = out_offsets
        self.out_targets = out_targets
        self.in_offsets = in_offsets
        self.in_targets = in_targets
        #: :attr:`DiGraph.version` of the source graph at snapshot time.
        self.version = version
        self._topo_ids: Optional[array] = None

    # ------------------------------------------------------------------
    # Vertex boundary
    # ------------------------------------------------------------------

    def __contains__(self, v: Vertex) -> bool:
        return v in self.interner

    def __len__(self) -> int:
        return self.num_vertices

    def vertices(self) -> Iterator[Vertex]:
        """Iterate vertex objects in id order (graph insertion order)."""
        return iter(self.interner)

    # ------------------------------------------------------------------
    # Topological sweep (shared by the DAG check and the score sweeps)
    # ------------------------------------------------------------------

    def topological_ids(self) -> array:
        """Snapshot ids in topological order (Kahn), cached.

        Newly freed ids are appended in sorted row order, so the result
        is fully deterministic for a given snapshot (it may be a
        *different* valid topological order than
        :func:`repro.graph.dag.topological_order`, whose frontier follows
        adjacency-set iteration order).

        Raises
        ------
        NotADagError
            If the snapshotted graph contains a cycle.
        """
        topo = self._topo_ids
        if topo is not None:
            return topo
        n = self.num_vertices
        offsets = self.out_offsets
        targets = self.out_targets
        in_offsets = self.in_offsets
        indegree = [in_offsets[i + 1] - in_offsets[i] for i in range(n)]
        order = array("i", (i for i in range(n) if not indegree[i]))
        head = 0
        while head < len(order):
            v = order[head]
            head += 1
            for w in targets[offsets[v]:offsets[v + 1]]:
                indegree[w] -= 1
                if not indegree[w]:
                    order.append(w)
        if len(order) != n:
            raise NotADagError(
                f"graph contains a cycle: only {len(order)} of {n} "
                f"vertices could be topologically sorted"
            )
        self._topo_ids = order
        return order

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(|V|={self.num_vertices}, "
            f"|E|={self.num_edges}, version={self.version})"
        )

    def check_invariants(self) -> None:
        """Validate offsets, sortedness and forward/reverse symmetry."""
        n = self.num_vertices
        self.interner.check_invariants()
        assert self.interner.free_count == 0, "snapshot ids must be dense"
        for offsets, targets in (
            (self.out_offsets, self.out_targets),
            (self.in_offsets, self.in_targets),
        ):
            assert len(offsets) == n + 1
            assert offsets[0] == 0 and offsets[-1] == len(targets)
            assert all(offsets[i] <= offsets[i + 1] for i in range(n))
            for i in range(n):
                row = targets[offsets[i]:offsets[i + 1]]
                assert list(row) == sorted(row), f"row {i} not sorted"
                assert all(0 <= u < n for u in row)
        forward = {
            (i, u)
            for i in range(n)
            for u in self.out_targets[self.out_offsets[i]:self.out_offsets[i + 1]]
        }
        reverse = {
            (u, i)
            for i in range(n)
            for u in self.in_targets[self.in_offsets[i]:self.in_offsets[i + 1]]
        }
        assert forward == reverse, "forward/reverse CSR out of sync"
        assert self.num_edges == len(forward)


def csr_snapshot(graph) -> CSRGraph:
    """Pack *graph* (a :class:`DiGraph`) into a fresh :class:`CSRGraph`.

    One O(|V| + |E|) pass (plus the per-vertex neighbor sorts that make
    every adjacency slice canonical).  Prefer ``graph.csr()``, which
    caches the snapshot until the graph mutates.
    """
    interner = VertexInterner()
    interner.intern_dense(graph.vertices())
    ids = interner.ids
    out_offsets = array("l", [0])
    out_targets = array("i")
    in_offsets = array("l", [0])
    in_targets = array("i")
    iter_out = graph.iter_out
    iter_in = graph.iter_in
    for v in graph.vertices():
        out_targets.extend(sorted(ids[u] for u in iter_out(v)))
        out_offsets.append(len(out_targets))
        in_targets.extend(sorted(ids[u] for u in iter_in(v)))
        in_offsets.append(len(in_targets))
    return CSRGraph(
        interner,
        out_offsets,
        out_targets,
        in_offsets,
        in_targets,
        version=getattr(graph, "version", 0),
    )
