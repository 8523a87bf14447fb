"""Persisting TOL indices: one container format, the TOLF pack.

The paper's preprocessing is the expensive phase (Figure 6); a production
deployment builds once, persists the index and serves it from many
processes.  Everything this library writes to disk or shared memory is a
**TOLF pack**: a 64-byte header, typed integer sections laid out 8-byte
aligned, a section directory, and a JSON meta document, all covered by
one CRC32.  A reader ``mmap``s the bytes (or attaches a
``multiprocessing.shared_memory`` segment) and reads each section through
``memoryview.cast`` without copying.

Each kind of content has one section encoding, shared by every writer:

* **labels** — the frozen CSR buffers in the live index's id space
  (``in_id_off``/``out_id_off`` i64, one slice per id;
  ``in_id_lab``/``out_id_lab`` i32 ids), the level-order vertex table
  ``vertex_of`` with each vertex's id ``vertex_id``, and the optional
  ``dag_edge`` (id pairs).  Older packs with level-rank labels are refused;
* **free list** — ``free_ids`` (the interner's LIFO free list), so with
  ``vertex_id`` a reload keeps id assignment;
* **graph** — the original graph's vertex table ``vertices`` and its
  ``edges`` as position pairs; a served index adds ``component_of``
  (aligned to ``vertices``) and ``next_component``, the condensation's
  never-reused id counter.

A vertex table is an i64 section when every vertex is a plain int, and a
JSON array under the same key in meta otherwise (tuples come back as
tuples, see :func:`repro.core.ops.hashable_vertex`).  The writers:

* :func:`save_index` / :func:`pack_index` — a live index: labels, DAG
  edges and free list, plus the graph sections for a
  :class:`~repro.core.index.ReachabilityIndex`;
* :func:`pack_graph` — a service checkpoint: the graph sections only;
* :func:`pack_snapshot` — a shared-memory publish: labels and the
  component map, no edges;
* :func:`pack_frozen` — a frozen index with free-form meta.

:func:`index_to_dict` is the JSON debug export; nothing reads it back.

Example
-------
>>> import tempfile, os
>>> from repro import TOLIndex
>>> from repro.graph.generators import figure1_dag
>>> index = TOLIndex.build(figure1_dag())
>>> path = os.path.join(tempfile.mkdtemp(), "fig1.tolf")
>>> save_index(index, path)
>>> restored = load_index(path)
>>> restored.query("e", "c")
True
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib
from array import array
from itertools import chain
from pathlib import Path
from typing import Optional, Union

from ..errors import (
    IndexStateError,
    ReproError,
    SerializationError,
    UnsupportedFormatError,
)
from ..graph.condensation import DynamicCondensation
from ..graph.digraph import DiGraph
from .frozen import FrozenTOLIndex
from .index import ReachabilityIndex, TOLIndex
from .intern import VertexInterner
from .labeling import TOLLabeling
from .ops import hashable_vertex
from .order import LevelOrder

__all__ = [
    "save_index",
    "load_index",
    "load_served_index",
    "pack_index",
    "unpack_index",
    "index_to_dict",
    "encode_pack",
    "decode_pack",
    "pack_frozen",
    "unpack_frozen",
    "pack_snapshot",
    "unpack_snapshot",
    "pack_graph",
    "unpack_graph",
]

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# JSON debug export
# ----------------------------------------------------------------------

def index_to_dict(index: TOLIndex) -> dict:
    """Return a JSON-serializable representation of *index*.

    Vertices must be JSON-compatible (int, str, bool, None, or nested
    lists/tuples thereof); anything else raises :class:`IndexStateError`.
    """
    labeling = index.labeling
    order = list(labeling.order)
    try:
        vertex_table = [json.loads(json.dumps(v)) for v in order]
    except (TypeError, ValueError) as exc:
        raise IndexStateError(
            f"vertices are not JSON-serializable: {exc}"
        ) from None
    # Edges and labels reference vertices by interned id, as the packs do.
    ids = labeling.interner.ids
    return {
        "format": "tol-index",
        "vertices": vertex_table,
        "intern_ids": [ids[v] for v in order],
        "edges": sorted((ids[t], ids[h]) for t, h in index.edges()),
        "labels_in": [labeling.in_ids[ids[v]].tolist() for v in order],
        "labels_out": [labeling.out_ids[ids[v]].tolist() for v in order],
        "free_ids": list(labeling.interner.free_ids),
    }


# ----------------------------------------------------------------------
# The container: header, sections, directory, meta
# ----------------------------------------------------------------------
#
# Layout (little-endian):
#
#   header     64 B  magic "TOLF", u16 version, u16 section count,
#                    i64 body length, 24 B zero, i64 meta length (at
#                    byte 40), u32 crc32(body), zero padding
#   body       sections, each padded to 8 bytes, in directory order
#              directory: per section a 16-byte NUL-padded ASCII name,
#                    i64 item size (4 or 8), i64 item count
#              meta: meta-length bytes of compact, key-sorted JSON

_PACK_MAGIC = b"TOLF"
_PACK_VERSION = 2
_PACK_HEADER = struct.Struct("<4sHHq24xqI")
_PACK_HEADER_SIZE = 64
_SECTION = struct.Struct("<16sqq")
_TYPECODES = {4: "i", 8: "q"}


def _pad8(n: int) -> int:
    return (-n) % 8


def encode_pack(sections: dict, meta: dict) -> bytes:
    """Write a TOLF pack: named int *sections* plus a JSON *meta* document.

    Each section is an ``array`` or ``memoryview`` of 4- or 8-byte ints.
    """
    try:
        meta_blob = json.dumps(
            meta, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise IndexStateError(
            f"pack metadata (or a vertex table) is not JSON-serializable: {exc}"
        ) from None
    parts, directory = [], []
    for name, items in sections.items():
        blob = items.tobytes()
        parts += (blob, b"\0" * _pad8(len(blob)))
        directory.append(
            _SECTION.pack(name.encode("ascii"), items.itemsize, len(items))
        )
    body = b"".join(chain(parts, directory, (meta_blob,)))
    header = _PACK_HEADER.pack(
        _PACK_MAGIC, _PACK_VERSION, len(sections), len(body),
        len(meta_blob), zlib.crc32(body),
    )
    return header + b"\0" * (_PACK_HEADER_SIZE - _PACK_HEADER.size) + body


def decode_pack(buf, *, verify: bool = True) -> tuple[dict, dict]:
    """Read a TOLF pack; returns ``(sections, meta)``, zero-copy.

    *buf* is any buffer (bytes, ``mmap``, a ``SharedMemory.buf`` slice);
    each section is a ``memoryview.cast`` view into it.  ``verify=False``
    skips the CRC.

    Raises
    ------
    UnsupportedFormatError
        For a TOLF pack of a version this code does not read.
    SerializationError
        For anything else that is not an intact pack: bad magic,
        truncation, a checksum mismatch, a malformed directory or meta.
    """
    view = memoryview(buf)
    if len(view) < _PACK_HEADER_SIZE:
        raise SerializationError("truncated TOLF pack (incomplete header)")
    magic, version, count, body_len, meta_len, checksum = (
        _PACK_HEADER.unpack_from(view, 0)
    )
    if magic != _PACK_MAGIC:
        raise SerializationError("not a TOLF pack (bad magic)")
    if version != _PACK_VERSION:
        raise UnsupportedFormatError(f"unsupported TOLF pack version {version}")
    end = _PACK_HEADER_SIZE + body_len
    if len(view) < end:
        raise SerializationError("truncated TOLF pack (incomplete body)")
    if verify and zlib.crc32(view[_PACK_HEADER_SIZE:end]) != checksum:
        raise SerializationError("TOLF pack is corrupt (checksum mismatch)")
    meta_at = end - meta_len
    pos = meta_at - count * _SECTION.size
    if meta_len < 0 or pos < _PACK_HEADER_SIZE:
        raise SerializationError("TOLF pack is corrupt (bad section table)")
    sections = {}
    offset = _PACK_HEADER_SIZE
    try:
        for name, size, n in _SECTION.iter_unpack(view[pos:meta_at]):
            nbytes = size * n
            if n < 0 or offset + nbytes > pos:
                raise ValueError(f"section {name!r} overruns the body")
            key = name.rstrip(b"\0").decode("ascii")
            sections[key] = view[offset:offset + nbytes].cast(_TYPECODES[size])
            offset += nbytes + _pad8(nbytes)
        meta = json.loads(bytes(view[meta_at:end]).decode("utf-8"))
    except (KeyError, ValueError) as exc:  # JSON/Unicode errors are ValueErrors
        raise SerializationError(f"TOLF pack is malformed: {exc!r}") from None
    if not isinstance(meta, dict):
        raise SerializationError("TOLF pack meta is not a JSON object")
    return sections, meta


# ----------------------------------------------------------------------
# Section encodings
# ----------------------------------------------------------------------

def _put_vertices(sections: dict, meta: dict, key: str, vertices) -> None:
    """One vertex table: an i64 section for plain ints, else JSON in meta."""
    vertices = list(vertices)
    if all(type(v) is int for v in vertices):
        try:
            sections[key] = array("q", vertices)
            return
        except OverflowError:
            pass
    meta[key] = vertices


def _get_vertices(sections: dict, meta: dict, key: str) -> Optional[list]:
    """Decode a table written by :func:`_put_vertices` (``None`` if absent)."""
    if key in sections:
        return sections[key].tolist()
    if key not in meta:
        return None
    table = meta[key]
    if not isinstance(table, list):
        raise SerializationError(f"pack vertex table {key!r} is not a list")
    return [hashable_vertex(v) for v in table]


def _pairs(flat) -> tuple:
    items = iter(flat.tolist())
    return tuple(zip(items, items))


def _put_frozen(sections: dict, meta: dict, frozen, edges: bool) -> None:
    sections["in_id_off"] = frozen._in_offsets
    sections["out_id_off"] = frozen._out_offsets
    sections["in_id_lab"] = frozen._in_labels
    sections["out_id_lab"] = frozen._out_labels
    if edges:
        sections["dag_edge"] = array("i", chain.from_iterable(frozen._edges))
    _put_vertices(sections, meta, "vertex_of", frozen._vertex_of)
    sections["vertex_id"] = array(
        "q", map(frozen._id_of.__getitem__, frozen._vertex_of)
    )


def _get_frozen(sections: dict, meta: dict):
    try:
        in_off, out_off = sections["in_id_off"], sections["out_id_off"]
        in_lab, out_lab = sections["in_id_lab"], sections["out_id_lab"]
        ids = sections["vertex_id"].tolist()
    except KeyError:
        raise SerializationError(
            "pack has no interned-id label sections (labels packed in level "
            "ranks must be rebuilt with `repro build`)"
        ) from None
    vertex_of = _get_vertices(sections, meta, "vertex_of")
    if vertex_of is None or len(vertex_of) != len(ids) or len(out_off) != len(in_off):
        raise SerializationError("TOLF pack vertex table does not match its ids")
    id_of = dict(zip(vertex_of, ids))
    if len(id_of) != len(vertex_of):
        raise SerializationError("pack vertex table contains duplicates")
    capacity = len(in_off) - 1
    if ids and (len(set(ids)) < len(ids) or min(ids) < 0 or max(ids) >= capacity):
        raise SerializationError(
            "pack vertex ids are not distinct ids below the label capacity"
        )
    edges = _pairs(sections["dag_edge"]) if "dag_edge" in sections else ()
    return FrozenTOLIndex(
        id_of, vertex_of, in_off, in_lab, out_off, out_lab, edges
    )


def _put_graph(sections: dict, meta: dict, graph: DiGraph) -> list:
    vertices = list(graph.vertices())
    _put_vertices(sections, meta, "vertices", vertices)
    position = {v: i for i, v in enumerate(vertices)}
    sections["edges"] = array(
        "i", [position[x] for edge in graph.edges() for x in edge]
    )
    return vertices


def _get_graph(sections: dict, meta: dict) -> DiGraph:
    vertices = _get_vertices(sections, meta, "vertices")
    if vertices is None or "edges" not in sections:
        raise SerializationError("pack has no graph sections")
    graph = DiGraph(vertices=vertices)
    if graph.num_vertices != len(vertices):
        raise SerializationError("pack graph vertex table contains duplicates")
    try:
        for tail, head in _pairs(sections["edges"]):
            graph.add_edge(vertices[tail], vertices[head])
    except (IndexError, ReproError) as exc:
        raise SerializationError(
            f"pack graph edges are malformed: {exc!r}"
        ) from None
    return graph


def _get_component_of(sections: dict, meta: dict) -> dict:
    vertices = _get_vertices(sections, meta, "vertices")
    if vertices is None or "component_of" not in sections:
        raise SerializationError("pack has no component map")
    return dict(zip(vertices, sections["component_of"].tolist()))


# ----------------------------------------------------------------------
# Writers and readers
# ----------------------------------------------------------------------

def pack_frozen(frozen, meta: Optional[dict] = None, *,
                include_edges: bool = True) -> bytes:
    """Serialize a :class:`FrozenTOLIndex` to TOLF pack bytes.

    *meta* is free-form JSON carried alongside.  The DAG edge section is
    written when ``include_edges`` is set and *frozen* carries edges (a
    snapshot frozen with ``edges=False`` has none).  Readers that only
    answer queries never touch adjacency.
    """
    sections: dict = {}
    doc = dict(meta or {})
    _put_frozen(sections, doc, frozen, include_edges and bool(frozen._edges))
    return encode_pack(sections, doc)


def unpack_frozen(buf, *, verify: bool = True):
    """Attach a :class:`FrozenTOLIndex` to TOLF pack bytes, zero-copy.

    The returned index's label/offset buffers are views into *buf*, which
    they keep alive.  Returns ``(frozen, meta)``.
    """
    sections, meta = decode_pack(buf, verify=verify)
    return _get_frozen(sections, meta), meta


def pack_snapshot(frozen, component_of: dict, meta: dict) -> bytes:
    """A shared-memory publish: labels plus the vertex -> component map."""
    sections: dict = {}
    doc = dict(meta)
    _put_frozen(sections, doc, frozen, False)
    _put_vertices(sections, doc, "vertices", component_of)
    sections["component_of"] = array("q", component_of.values())
    return encode_pack(sections, doc)


def unpack_snapshot(buf):
    """Read a :func:`pack_snapshot` pack: ``(frozen, component_of, meta)``."""
    sections, meta = decode_pack(buf)
    return (
        _get_frozen(sections, meta), _get_component_of(sections, meta), meta
    )


def pack_graph(graph: DiGraph, meta: dict) -> bytes:
    """A service checkpoint: the graph sections and *meta*, no labels."""
    sections: dict = {}
    doc = dict(meta)
    _put_graph(sections, doc, graph)
    return encode_pack(sections, doc)


def unpack_graph(buf) -> tuple[DiGraph, dict]:
    """Read a :func:`pack_graph` pack: ``(graph, meta)``."""
    sections, meta = decode_pack(buf)
    return _get_graph(sections, meta), meta


def pack_index(index) -> bytes:
    """A live index (either facade) as TOLF pack bytes."""
    served = isinstance(index, ReachabilityIndex)
    tol = index.tol if served else index
    sections: dict = {}
    meta: dict = {}
    _put_frozen(sections, meta, FrozenTOLIndex.from_index(tol), True)
    sections["free_ids"] = array("q", tol.labeling.interner.free_ids)
    if served:
        condensation = index.condensation
        vertices = _put_graph(sections, meta, condensation.graph)
        sections["component_of"] = array(
            "q", map(condensation.component_of.__getitem__, vertices)
        )
        sections["next_component"] = array("q", [condensation._next_id])
    return encode_pack(sections, meta)


def unpack_index(buf):
    """Rebuild the index :func:`pack_index` wrote, ids and order exact.

    Returns a :class:`~repro.core.index.ReachabilityIndex` for a pack with
    the graph sections and a :class:`TOLIndex` otherwise.
    """
    sections, meta = decode_pack(buf)
    frozen = _get_frozen(sections, meta)
    if "dag_edge" not in sections or "free_ids" not in sections:
        raise SerializationError(
            "pack holds a query-only snapshot (no DAG edges or free list) "
            "and cannot be thawed; write the index with `repro build`"
        )
    vertex_of = frozen._vertex_of
    try:
        interner = VertexInterner.restore(
            frozen._id_of, sections["free_ids"].tolist()
        )
    except ValueError as exc:
        raise SerializationError(f"pack interner is malformed: {exc}") from None
    labeling = TOLLabeling(LevelOrder(vertex_of), interner=interner)
    if "component_of" not in sections:
        return frozen._thaw_into(labeling, frozen._dag())
    graph = _get_graph(sections, meta)
    try:
        (next_id,) = sections["next_component"].tolist()
        condensation = DynamicCondensation.restore(
            graph, _get_component_of(sections, meta), next_id
        )
    except (KeyError, ValueError, ReproError) as exc:
        raise SerializationError(
            f"pack condensation is malformed: {exc!r}"
        ) from None
    # The TOL index adopts the condensation's DAG, which must be the one
    # the pack's labels and DAG edges describe.
    dag = condensation.dag
    if set(dag) != set(vertex_of) or dag.num_edges != len(frozen._edges):
        raise SerializationError("pack condensation does not match its DAG")
    tol = frozen._thaw_into(labeling, dag)
    return ReachabilityIndex.restore(condensation, tol)


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------

def _write_atomic(path: PathLike, blob: bytes) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(blob)
    os.replace(tmp, path)


def save_index(index, path: PathLike) -> None:
    """Atomically write *index* (either facade) to *path* as a TOLF pack."""
    _write_atomic(path, pack_index(index))


def load_index(path: PathLike):
    """Load an index written by :func:`save_index`.

    The file is memory-mapped, not read into a copy.

    Raises
    ------
    SerializationError
        On empty, truncated, corrupt or checksum-failing input.
    """
    with open(path, "rb") as fh:
        try:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:  # zero-length file
            raise SerializationError(f"{path} is empty: {exc}") from None
    return unpack_index(mapped)


def load_served_index(path: PathLike):
    """Load the :class:`~repro.core.index.ReachabilityIndex` a server boots.

    `repro build` writes such packs; a saved :class:`TOLIndex` carries no
    original graph and is refused.
    """
    index = load_index(path)
    if not isinstance(index, ReachabilityIndex):
        raise SerializationError(
            f"{path} holds a TOLIndex without the original graph and cannot "
            "boot a server; write it with `repro build`"
        )
    return index
