"""FrozenTOLIndex: an immutable, query-optimized snapshot of a TOL index.

The live :class:`~repro.core.index.TOLIndex` stores labels as per-vertex
sorted ``array('i')`` buffers of interned ids (plus the inverted lists
the update algorithms need).  Freezing copies them, ids unchanged, into
two flat ``array('i')`` label buffers plus two ``array('l')`` offset
buffers in CSR layout, indexed by interned id over ``0..capacity`` (a
free id has an empty slice).  The level-order vertex table and each
vertex's id travel with the buffers, so :meth:`FrozenTOLIndex.thaw`
rebuilds the order and the interner.  Freezing is one ``extend`` per id
slot, with no translation and no sort; a query slices ``Lout(s)`` and
``Lin(t)`` out of the buffers and hands them to the live index's
Equation-1 kernel, :func:`~repro.core.labeling.witness_id`.  The four
buffers may be ``array`` objects (a local freeze) or ``memoryview.cast``
views into an mmapped ``.tolf`` pack or a
``multiprocessing.shared_memory`` segment (see
:func:`repro.core.serialize.unpack_frozen` and :mod:`repro.shm`) —
queries only need slicing, ``len``, indexing, ``in`` and ``bisect``,
which both support identically.  Freezing drops the inverted lists and
the per-vertex array objects, so it still shrinks resident memory versus
the live index (measured in ``benchmarks/bench_frozen.py``); updates are
intentionally unsupported — thaw back into a :class:`TOLIndex` via
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
from collections.abc import Hashable, Iterable
from typing import Optional

from ..errors import UnknownVertexError
from ..graph.digraph import DiGraph
from .index import TOLIndex
from .intern import VertexInterner
from .labeling import TOLLabeling, witness_id
from .order import LevelOrder

__all__ = ["FrozenTOLIndex", "freeze"]

Vertex = Hashable

#: Marks a free-listed id in the id -> vertex table (``None`` is a vertex).
_HOLE = object()


class FrozenTOLIndex:
    """Read-only TOL index over flat arrays (see module docstring).

    Build one with :func:`freeze` / :meth:`from_index`.  *id_of* maps
    each vertex to its interned id; *vertex_of* is the level order.

    Examples
    --------
    >>> from repro.graph.generators import figure1_dag
    >>> frozen = freeze(TOLIndex.build(figure1_dag()))
    >>> frozen.query("e", "c"), frozen.query("c", "e")
    (True, False)
    """

    __slots__ = (
        "_id_of", "_vertex_of", "_by_id", "_in_offsets", "_in_labels",
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
        self._by_id: Optional[list] = None  # see _table()
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

        Each id slot's live buffer is copied as it is: the labels keep
        their interned ids, and a free id gets an empty slice.

        ``edges=False`` leaves out the DAG edge list, skipping a walk
        over the DAG's edges.  The snapshot answers queries the same but
        cannot be thawed back into a live index; shared-memory publishing
        wants exactly that.
        """
        labeling = index.labeling
        id_of = dict(labeling.interner.ids)

        def pack(buffers) -> tuple[array, array]:
            """CSR-pack one side's id buffers into (offsets, labels)."""
            offsets = array("l", [0])
            labels = array("i")
            for ids in buffers:
                if ids:  # None for a free id
                    labels.extend(ids)
                offsets.append(len(labels))
            return offsets, labels

        in_offsets, in_labels = pack(labeling.in_ids)
        out_offsets, out_labels = pack(labeling.out_ids)
        edge_ids = None
        if edges:
            edge_ids = tuple((id_of[t], id_of[h]) for t, h in index.edges())
        return cls(
            id_of, list(labeling.order), in_offsets, in_labels,
            out_offsets, out_labels, edge_ids,
        )

    def thaw(self) -> TOLIndex:
        """Rebuild a mutable :class:`TOLIndex` carrying the same state
        (the same ids; the free ids become the interner's free list)."""
        holes = [i for i, v in enumerate(self._table()) if v is _HOLE]
        interner = VertexInterner.restore(self._id_of, holes)
        labeling = TOLLabeling(LevelOrder(self._vertex_of), interner=interner)
        return self._thaw_into(labeling, self._dag())

    def _table(self) -> list:
        """The id -> vertex table (``_HOLE`` at free ids), built on first use."""
        if self._by_id is None:
            self._by_id = [_HOLE] * (len(self._in_offsets) - 1)
            for v, i in self._id_of.items():
                self._by_id[i] = v
        return self._by_id

    def _dag(self) -> DiGraph:
        """The indexed DAG, rebuilt from the snapshot's edge list."""
        by_id = self._table()
        graph = DiGraph(vertices=self._vertex_of)
        for tid, hid in self._edges:
            graph.add_edge(by_id[tid], by_id[hid])
        return graph

    def _thaw_into(self, labeling: TOLLabeling, graph: DiGraph) -> TOLIndex:
        """Fill the empty *labeling* (its interner holds this snapshot's
        ids) from the buffers; *graph* is the DAG over the same vertices."""
        for fill, offsets, labels in (
            (labeling.fill_in_ids, self._in_offsets, self._in_labels),
            (labeling.fill_out_ids, self._out_offsets, self._out_labels),
        ):
            for vid in self._id_of.values():
                fill(vid, labels[offsets[vid]:offsets[vid + 1]])
        return TOLIndex(graph, labeling)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, s: Vertex, t: Vertex) -> bool:
        """Answer ``s -> t`` (Equation 1 over the packed slices)."""
        return self._witness_id(s, t) >= 0

    def witness(self, s: Vertex, t: Vertex) -> Optional[Vertex]:
        """Return one element of ``W(s, t)``, or ``None`` if unreachable
        (which one: see :func:`~repro.core.labeling.witness_id`)."""
        w = self._witness_id(s, t)
        return None if w < 0 else self._table()[w]

    def _witness_id(self, s: Vertex, t: Vertex) -> int:
        """:func:`~repro.core.labeling.witness_id` over the slices
        ``Lout(s)`` and ``Lin(t)`` of the packed buffers."""
        try:
            sid = self._id_of[s]
            tid = self._id_of[t]
        except KeyError as missing:
            raise UnknownVertexError(missing.args[0]) from None
        out_off = self._out_offsets
        in_off = self._in_offsets
        return witness_id(
            self._out_labels[out_off[sid]:out_off[sid + 1]],
            self._in_labels[in_off[tid]:in_off[tid + 1]],
            sid, tid,
        )

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
        return frozenset(map(self._table().__getitem__, self._in_labels[lo:hi]))

    def out_labels(self, v: Vertex) -> frozenset[Vertex]:
        """``Lout(v)`` mapped back to vertex objects."""
        i = self._id_of[v]
        lo, hi = self._out_offsets[i], self._out_offsets[i + 1]
        return frozenset(map(self._table().__getitem__, self._out_labels[lo:hi]))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(|V|={self.num_vertices}, "
            f"|L|={self.size()}, bytes={self.size_bytes()})"
        )


def freeze(index: TOLIndex, *, edges: bool = True) -> FrozenTOLIndex:
    """Shorthand for :meth:`FrozenTOLIndex.from_index`."""
    return FrozenTOLIndex.from_index(index, edges=edges)
