"""FrozenTOLIndex: an immutable, query-optimized snapshot of a TOL index.

The live :class:`~repro.core.index.TOLIndex` already stores labels as
per-vertex sorted ``array('i')`` id buffers (plus the inverted lists the
update algorithms need).  Freezing re-packs those buffers into two flat
``array('i')`` label buffers plus two ``array('l')`` offset buffers in
CSR layout:

* vertices are renumbered ``0..n-1`` by level (highest level = 0), so a
  label's rank *is* its id and level comparisons are integer compares;
* ``in_labels``/``out_labels`` hold every label contiguously, sorted per
  vertex; ``in_offsets``/``out_offsets`` delimit each vertex's slice;
* a query intersects two sorted slices with a linear merge (or a galloping
  probe when one side is much shorter).

Because the live index is id-based, freezing is a near-zero-cost repack:
one rank-translation table plus a small per-vertex sort of each translated
buffer — no hashing of vertex objects.  This is the shape a C
implementation of the paper would use for serving, and the buffers *are*
mmapped directly in the zero-copy path: the four buffers may be
``array`` objects (a local freeze) or ``memoryview.cast`` views into an
mmapped ``.tolf`` pack or a ``multiprocessing.shared_memory`` segment
(see :func:`repro.core.serialize.unpack_frozen` and :mod:`repro.shm`) —
queries only need ``len``/indexing/``bisect``, which both support
identically.  Freezing drops the inverted lists and the per-vertex
array objects, so it still shrinks resident memory versus the live index
(measured in ``benchmarks/bench_frozen.py``); updates are intentionally
unsupported — thaw back into a :class:`TOLIndex` via
:meth:`FrozenTOLIndex.thaw` to mutate.

Size accounting: :meth:`FrozenTOLIndex.size_bytes` reports label payload
bytes (``size() * itemsize``), the same formula — and, since the label
arrays share the live ``'i'`` typecode, the same number — as
:meth:`TOLLabeling.size_bytes <repro.core.labeling.TOLLabeling.size_bytes>`,
so live and frozen sizes are directly comparable;
:meth:`FrozenTOLIndex.buffer_bytes` additionally counts the CSR offset
arrays (the number an mmap of the packed buffers would occupy).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Hashable, Iterable
from typing import Optional

from ..errors import UnknownVertexError
from ..graph.digraph import DiGraph
from .index import TOLIndex
from .labeling import TOLLabeling
from .order import LevelOrder

__all__ = ["FrozenTOLIndex", "freeze"]

Vertex = Hashable


class FrozenTOLIndex:
    """Read-only TOL index over flat arrays (see module docstring).

    Build one with :func:`freeze` / :meth:`from_index`.

    Examples
    --------
    >>> from repro.graph.generators import figure1_dag
    >>> frozen = freeze(TOLIndex.build(figure1_dag()))
    >>> frozen.query("e", "c"), frozen.query("c", "e")
    (True, False)
    """

    __slots__ = (
        "_id_of", "_vertex_of", "_in_offsets", "_in_labels",
        "_out_offsets", "_out_labels", "_edges",
    )

    def __init__(
        self,
        id_of: dict[Vertex, int],
        vertex_of: list[Vertex],
        in_offsets: "array | memoryview",
        in_labels: "array | memoryview",
        out_offsets: "array | memoryview",
        out_labels: "array | memoryview",
        edges: Optional[tuple[tuple[int, int], ...]] = None,
    ) -> None:
        self._id_of = id_of
        self._vertex_of = vertex_of
        self._in_offsets = in_offsets
        self._in_labels = in_labels
        self._out_offsets = out_offsets
        self._out_labels = out_labels
        self._edges = edges or ()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_index(
        cls, index: TOLIndex, *, edges: bool = True
    ) -> "FrozenTOLIndex":
        """Snapshot a live :class:`TOLIndex` (which stays usable).

        A rank-translation repack: interned ids are mapped to level ranks
        through one flat table, and each vertex's already-sorted id buffer
        becomes a sorted rank slice after a small per-vertex sort.

        ``edges=False`` leaves out the DAG edge list, skipping a copy of
        the graph and a sort of its |E| edges.  The snapshot answers
        queries the same but cannot be thawed back into a live index;
        shared-memory publishing wants exactly that.
        """
        labeling = index.labeling
        vertex_of = list(labeling.order)  # highest level first -> id 0
        id_of = {v: i for i, v in enumerate(vertex_of)}
        # intern id -> level rank, one slot per id (holes stay 0; unused).
        intern_ids = labeling.interner.ids
        rank_of = [0] * labeling.interner.capacity
        for rank, v in enumerate(vertex_of):
            rank_of[intern_ids[v]] = rank
        rank = rank_of.__getitem__

        def pack(buffers) -> tuple[array, array]:
            """CSR-pack one side's id buffers into (offsets, labels)."""
            offsets = array("l", [0])
            labels = array("i")
            for v in vertex_of:
                labels.extend(sorted(map(rank, buffers[intern_ids[v]])))
                offsets.append(len(labels))
            return offsets, labels

        in_offsets, in_labels = pack(labeling.in_ids)
        out_offsets, out_labels = pack(labeling.out_ids)
        edge_ids = None
        if edges:
            edge_ids = tuple(sorted(
                (id_of[t], id_of[h]) for t, h in index.graph_copy().edges()
            ))
        return cls(
            id_of, vertex_of, in_offsets, in_labels, out_offsets, out_labels,
            edge_ids,
        )

    def thaw(self) -> TOLIndex:
        """Rebuild a mutable :class:`TOLIndex` carrying the same state."""
        return self._thaw_into(
            TOLLabeling(LevelOrder(self._vertex_of)), self._dag()
        )

    def _dag(self) -> DiGraph:
        """The indexed DAG, rebuilt from the snapshot's edge list."""
        vertex_of = self._vertex_of
        graph = DiGraph(vertices=vertex_of)
        for tid, hid in self._edges:
            graph.add_edge(vertex_of[tid], vertex_of[hid])
        return graph

    def _thaw_into(self, labeling: TOLLabeling, graph: DiGraph) -> TOLIndex:
        """Fill the empty *labeling* (over this index's vertices, ids from
        its own interner) from the buffers and pair it with *graph*, the
        DAG over the same vertices."""
        vertex_of = self._vertex_of
        ids = list(map(labeling.interner.ids.__getitem__, vertex_of))
        for fill, offsets, labels in (
            (labeling.fill_in_ids, self._in_offsets, self._in_labels),
            (labeling.fill_out_ids, self._out_offsets, self._out_labels),
        ):
            for rank, vid in enumerate(ids):
                lo, hi = offsets[rank], offsets[rank + 1]
                fill(vid, sorted(map(ids.__getitem__, labels[lo:hi])))
        return TOLIndex(graph, labeling)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, s: Vertex, t: Vertex) -> bool:
        """Answer ``s -> t`` (Equation 1 over the packed arrays)."""
        try:
            sid = self._id_of[s]
            tid = self._id_of[t]
        except KeyError as missing:
            raise UnknownVertexError(missing.args[0]) from None
        if sid == tid:
            return True
        out_lo, out_hi = self._out_offsets[sid], self._out_offsets[sid + 1]
        in_lo, in_hi = self._in_offsets[tid], self._in_offsets[tid + 1]
        out_labels, in_labels = self._out_labels, self._in_labels
        # Endpoint hits: t ∈ Lout(s) / s ∈ Lin(t) via binary search.
        pos = bisect_left(out_labels, tid, out_lo, out_hi)
        if pos < out_hi and out_labels[pos] == tid:
            return True
        pos = bisect_left(in_labels, sid, in_lo, in_hi)
        if pos < in_hi and in_labels[pos] == sid:
            return True
        return self._intersect(out_lo, out_hi, in_lo, in_hi) >= 0

    def witness(self, s: Vertex, t: Vertex) -> Optional[Vertex]:
        """Return one element of ``W(s, t)``, or ``None`` if unreachable."""
        try:
            sid = self._id_of[s]
            tid = self._id_of[t]
        except KeyError as missing:
            raise UnknownVertexError(missing.args[0]) from None
        if sid == tid:
            return s
        out_lo, out_hi = self._out_offsets[sid], self._out_offsets[sid + 1]
        in_lo, in_hi = self._in_offsets[tid], self._in_offsets[tid + 1]
        out_labels, in_labels = self._out_labels, self._in_labels
        pos = bisect_left(out_labels, tid, out_lo, out_hi)
        if pos < out_hi and out_labels[pos] == tid:
            return t
        pos = bisect_left(in_labels, sid, in_lo, in_hi)
        if pos < in_hi and in_labels[pos] == sid:
            return s
        w = self._intersect(out_lo, out_hi, in_lo, in_hi)
        return None if w < 0 else self._vertex_of[w]

    def _intersect(self, a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> int:
        """Sorted-slice intersection: return a common id, or -1.

        Linear merge, galloping when one side is much shorter.
        """
        a, b = self._out_labels, self._in_labels
        len_a, len_b = a_hi - a_lo, b_hi - b_lo
        if len_a == 0 or len_b == 0:
            return -1
        if len_a * 16 < len_b:
            for i in range(a_lo, a_hi):
                pos = bisect_left(b, a[i], b_lo, b_hi)
                if pos < b_hi and b[pos] == a[i]:
                    return a[i]
            return -1
        if len_b * 16 < len_a:
            for j in range(b_lo, b_hi):
                pos = bisect_left(a, b[j], a_lo, a_hi)
                if pos < a_hi and a[pos] == b[j]:
                    return b[j]
            return -1
        i, j = a_lo, b_lo
        while i < a_hi and j < b_hi:
            if a[i] == b[j]:
                return a[i]
            if a[i] < b[j]:
                i += 1
            else:
                j += 1
        return -1

    def query_many(self, pairs: Iterable[tuple[Vertex, Vertex]]) -> list[bool]:
        """Answer a batch of queries (convenience for serving loops)."""
        query = self.query
        return [query(s, t) for s, t in pairs]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __contains__(self, v: Vertex) -> bool:
        return v in self._id_of

    @property
    def num_vertices(self) -> int:
        """Number of indexed vertices."""
        return len(self._vertex_of)

    def size(self) -> int:
        """Total label count ``|L|``."""
        return len(self._in_labels) + len(self._out_labels)

    def size_bytes(self) -> int:
        """Label payload bytes: ``size() * itemsize``.

        Same formula as :meth:`TOLLabeling.size_bytes
        <repro.core.labeling.TOLLabeling.size_bytes>` so live and frozen
        indices are directly comparable; see :meth:`buffer_bytes` for the
        full packed footprint including the CSR offset arrays.
        """
        return (
            self._in_labels.itemsize * len(self._in_labels)
            + self._out_labels.itemsize * len(self._out_labels)
        )

    def buffer_bytes(self) -> int:
        """Total bytes of all four packed buffers (labels + offsets)."""
        return (
            self._in_labels.itemsize * len(self._in_labels)
            + self._out_labels.itemsize * len(self._out_labels)
            + self._in_offsets.itemsize * len(self._in_offsets)
            + self._out_offsets.itemsize * len(self._out_offsets)
        )

    def in_labels(self, v: Vertex) -> frozenset[Vertex]:
        """``Lin(v)`` mapped back to vertex objects."""
        i = self._id_of[v]
        lo, hi = self._in_offsets[i], self._in_offsets[i + 1]
        return frozenset(self._vertex_of[u] for u in self._in_labels[lo:hi])

    def out_labels(self, v: Vertex) -> frozenset[Vertex]:
        """``Lout(v)`` mapped back to vertex objects."""
        i = self._id_of[v]
        lo, hi = self._out_offsets[i], self._out_offsets[i + 1]
        return frozenset(self._vertex_of[u] for u in self._out_labels[lo:hi])

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(|V|={self.num_vertices}, "
            f"|L|={self.size()}, bytes={self.size_bytes()})"
        )


def freeze(index: TOLIndex, *, edges: bool = True) -> FrozenTOLIndex:
    """Shorthand for :meth:`FrozenTOLIndex.from_index`."""
    return FrozenTOLIndex.from_index(index, edges=edges)
