"""Persisting TOL indices: save a built index, load it without rebuilding.

The paper's preprocessing is the expensive phase (Figure 6); a production
deployment builds once and serves queries from many processes, so the index
must round-trip through disk.  Two formats:

* **binary** (``.tolx``, default) — a compact custom format: a header, the
  vertex table, the level order as ranks, and delta-coded label arrays.
  Integer vertex ids are stored natively; other hashable vertices go
  through their JSON representation in the vertex table.
* **json** (``.json``) — a transparent, diff-able format for debugging and
  interchange.

Both formats store the *graph* alongside the labels: the update algorithms
(Section 5) need adjacency, and shipping it in the same artifact keeps the
pair consistent by construction.  Loading verifies a checksum over the
payload and the format version.

Example
-------
>>> import tempfile, os
>>> from repro import TOLIndex
>>> from repro.graph.generators import figure1_dag
>>> index = TOLIndex.build(figure1_dag())
>>> path = os.path.join(tempfile.mkdtemp(), "fig1.tolx")
>>> save_index(index, path)
>>> restored = load_index(path)
>>> restored.query("e", "c")
True
"""

from __future__ import annotations

import io
import json
import mmap
import os
import struct
import zlib
from array import array
from pathlib import Path
from typing import Optional, Union

from ..errors import IndexStateError, SerializationError
from ..graph.digraph import DiGraph
from .index import TOLIndex
from .intern import VertexInterner
from .labeling import TOLLabeling
from .order import LevelOrder

__all__ = [
    "save_index",
    "load_index",
    "index_to_dict",
    "index_from_dict",
    "graph_to_dict",
    "graph_from_dict",
    "save_checkpoint",
    "load_checkpoint",
    "pack_frozen",
    "unpack_frozen",
    "save_pack",
    "load_pack",
    "reachability_index_from_pack",
    "hashable_vertex",
]

PathLike = Union[str, Path]

_MAGIC = b"TOLX"
#: Version 2 adds the interner id table (+ free list) so a round trip
#: preserves id assignment, and a payload checksum on the JSON format.
#: Version-1 artifacts still load (ids are then reassigned densely).
_VERSION = 2
_KNOWN_VERSIONS = (1, 2)

#: Magic + version for service checkpoints (graph snapshot + metadata).
_CKPT_MAGIC = b"TOLC"
_CKPT_VERSION = 1


# ----------------------------------------------------------------------
# Dict (JSON) representation
# ----------------------------------------------------------------------

def index_to_dict(index: TOLIndex) -> dict:
    """Return a JSON-serializable representation of *index*.

    Vertices must be JSON-compatible (int, str, bool, None, or nested
    lists/tuples thereof); anything else raises :class:`IndexStateError`.
    """
    labeling = index.labeling
    order = list(labeling.order)
    position = {v: i for i, v in enumerate(order)}
    graph = index.graph_copy()
    try:
        vertex_table = [json.loads(json.dumps(v)) for v in order]
    except (TypeError, ValueError) as exc:
        raise IndexStateError(
            f"vertices are not JSON-serializable: {exc}"
        ) from None
    # Translate interned ids to order positions through one flat table
    # (avoids re-hashing vertex objects per label).
    intern_ids = labeling.interner.ids
    pos_of_id = [0] * labeling.interner.capacity
    for v, i in intern_ids.items():
        pos_of_id[i] = position[v]
    return {
        "format": "tol-index",
        "version": _VERSION,
        "vertices": vertex_table,
        # Edges and labels reference vertices by their order position.
        "edges": sorted(
            (position[t], position[h]) for t, h in graph.edges()
        ),
        "labels_in": [
            sorted(pos_of_id[u] for u in labeling.in_ids[intern_ids[v]])
            for v in order
        ],
        "labels_out": [
            sorted(pos_of_id[u] for u in labeling.out_ids[intern_ids[v]])
            for v in order
        ],
        # v2: exact interner state, so reload preserves id assignment
        # (and therefore future id allocation) instead of renumbering.
        "intern_ids": [intern_ids[v] for v in order],
        "free_ids": list(labeling.interner.free_ids),
    }


def index_from_dict(payload: dict) -> TOLIndex:
    """Rebuild a :class:`TOLIndex` from :func:`index_to_dict` output.

    Raises
    ------
    SerializationError
        On a malformed payload (missing fields, bad references,
        inconsistent interner table) — never a bare ``KeyError`` or
        ``IndexError`` from mid-parse.
    """
    if not isinstance(payload, dict) or payload.get("format") != "tol-index":
        raise SerializationError("payload is not a serialized TOL index")
    if payload.get("version") not in _KNOWN_VERSIONS:
        raise SerializationError(
            f"unsupported index format version {payload.get('version')!r}"
        )
    try:
        return _index_from_dict_checked(payload)
    except SerializationError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"serialized index payload is malformed: {exc!r}"
        ) from None


def _index_from_dict_checked(payload: dict) -> TOLIndex:
    raw_vertices = payload["vertices"]
    # JSON round-trips tuples as lists; make them hashable again.
    vertices = [_hashable(v) for v in raw_vertices]
    if len(set(vertices)) != len(vertices):
        raise SerializationError("serialized vertex table contains duplicates")

    order = LevelOrder(vertices)
    interner = None
    if payload.get("intern_ids") is not None:
        intern_ids = payload["intern_ids"]
        if len(intern_ids) != len(vertices):
            raise SerializationError(
                "intern id table does not match the vertex table"
            )
        interner = VertexInterner.restore(
            dict(zip(vertices, intern_ids)), payload.get("free_ids", ())
        )
    labeling = TOLLabeling(order, interner=interner)
    for i, ids in enumerate(payload["labels_in"]):
        v = vertices[i]
        for u in ids:
            labeling.add_in_label(v, vertices[u])
    for i, ids in enumerate(payload["labels_out"]):
        v = vertices[i]
        for u in ids:
            labeling.add_out_label(v, vertices[u])

    graph = DiGraph(vertices=vertices)
    for tail, head in payload["edges"]:
        graph.add_edge(vertices[tail], vertices[head])
    return TOLIndex(graph, labeling)


def _hashable(v):
    return tuple(_hashable(x) for x in v) if isinstance(v, list) else v


# ----------------------------------------------------------------------
# Binary format
# ----------------------------------------------------------------------

def _write_uvarint(buf: io.BytesIO, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.write(bytes((byte | 0x80,)))
        else:
            buf.write(bytes((byte,)))
            return


def _read_uvarint(buf: io.BytesIO) -> int:
    shift = 0
    result = 0
    while True:
        raw = buf.read(1)
        if not raw:
            raise SerializationError("truncated index file")
        byte = raw[0]
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result
        shift += 7


def _write_id_list(buf: io.BytesIO, ids: list[int]) -> None:
    """Delta-coded sorted id list: count, first, then gaps."""
    _write_uvarint(buf, len(ids))
    previous = 0
    for i in sorted(ids):
        _write_uvarint(buf, i - previous)
        previous = i


def _read_id_list(buf: io.BytesIO) -> list[int]:
    count = _read_uvarint(buf)
    ids = []
    current = 0
    for _ in range(count):
        current += _read_uvarint(buf)
        ids.append(current)
    return ids


def _encode_binary(payload: dict) -> bytes:
    body = io.BytesIO()
    vertices = payload["vertices"]
    _write_uvarint(body, len(vertices))
    vertex_blob = json.dumps(vertices, separators=(",", ":")).encode("utf-8")
    _write_uvarint(body, len(vertex_blob))
    body.write(vertex_blob)

    edges = payload["edges"]
    _write_uvarint(body, len(edges))
    for tail, head in edges:
        _write_uvarint(body, tail)
        _write_uvarint(body, head)
    for key in ("labels_in", "labels_out"):
        for ids in payload[key]:
            _write_id_list(body, ids)
    # v2: exact interner state (ids per order position, then the free list
    # — the latter is *not* sorted, its LIFO order is part of the state).
    for i in payload["intern_ids"]:
        _write_uvarint(body, i)
    _write_uvarint(body, len(payload["free_ids"]))
    for i in payload["free_ids"]:
        _write_uvarint(body, i)

    raw = body.getvalue()
    compressed = zlib.compress(raw, level=6)
    header = _MAGIC + struct.pack(
        "<HII", _VERSION, len(raw), zlib.crc32(raw)
    )
    return header + compressed


def _decode_binary(blob: bytes) -> dict:
    if blob[:4] != _MAGIC:
        raise SerializationError("not a TOL index file (bad magic)")
    if len(blob) < 14:
        raise SerializationError("truncated index file (incomplete header)")
    version, raw_len, checksum = struct.unpack("<HII", blob[4:14])
    if version not in _KNOWN_VERSIONS:
        raise SerializationError(
            f"unsupported index format version {version}"
        )
    try:
        raw = zlib.decompress(blob[14:])
    except zlib.error as exc:
        raise SerializationError(
            f"index file is corrupt (bad compressed payload: {exc})"
        ) from None
    if len(raw) != raw_len or zlib.crc32(raw) != checksum:
        raise SerializationError("index file is corrupt (checksum mismatch)")

    buf = io.BytesIO(raw)
    try:
        num_vertices = _read_uvarint(buf)
        blob_len = _read_uvarint(buf)
        vertices = json.loads(buf.read(blob_len).decode("utf-8"))
        if len(vertices) != num_vertices:
            raise SerializationError("index file is corrupt (vertex count)")
        num_edges = _read_uvarint(buf)
        edges = [
            (_read_uvarint(buf), _read_uvarint(buf)) for _ in range(num_edges)
        ]
        labels_in = [_read_id_list(buf) for _ in range(num_vertices)]
        labels_out = [_read_id_list(buf) for _ in range(num_vertices)]
        intern_ids = None
        free_ids: list[int] = []
        if version >= 2:
            intern_ids = [_read_uvarint(buf) for _ in range(num_vertices)]
            free_ids = [_read_uvarint(buf) for _ in range(_read_uvarint(buf))]
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(
            f"index file is corrupt (bad vertex table: {exc})"
        ) from None
    return {
        "format": "tol-index",
        "version": version,
        "vertices": vertices,
        "edges": edges,
        "labels_in": labels_in,
        "labels_out": labels_out,
        "intern_ids": intern_ids,
        "free_ids": free_ids,
    }


# ----------------------------------------------------------------------
# Public file API
# ----------------------------------------------------------------------

def _payload_crc(payload: dict) -> int:
    """CRC32 over the canonical JSON of *payload* minus the crc field."""
    body = {k: v for k, v in sorted(payload.items()) if k != "crc32"}
    return zlib.crc32(
        json.dumps(body, separators=(",", ":"), sort_keys=True).encode("utf-8")
    )


def save_index(index: TOLIndex, path: PathLike, *, format: str = "auto") -> None:
    """Write *index* to *path*.

    ``format="auto"`` picks JSON for ``.json`` paths and the binary
    format otherwise; ``"json"`` / ``"binary"`` force a format.  Both
    formats carry a format version and a payload checksum, verified on
    load.
    """
    path = Path(path)
    fmt = format
    if fmt == "auto":
        fmt = "json" if path.suffix == ".json" else "binary"
    payload = index_to_dict(index)
    if fmt == "json":
        payload["crc32"] = _payload_crc(payload)
        path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    elif fmt == "binary":
        path.write_bytes(_encode_binary(payload))
    else:
        raise IndexStateError(f"unknown index format {format!r}")


def load_index(path: PathLike) -> TOLIndex:
    """Load an index written by :func:`save_index` (format auto-detected).

    Raises
    ------
    SerializationError
        On truncated, corrupt or checksum-failing input.
    """
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] == _MAGIC:
        payload = _decode_binary(blob)
    else:
        try:
            payload = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise SerializationError(
                f"{path} is neither a binary nor a JSON TOL index"
            ) from None
        if isinstance(payload, dict) and "crc32" in payload:
            if payload["crc32"] != _payload_crc(payload):
                raise SerializationError(
                    f"{path} is corrupt (payload checksum mismatch)"
                )
    return index_from_dict(payload)


# ----------------------------------------------------------------------
# Graph snapshots and service checkpoints
# ----------------------------------------------------------------------

def graph_to_dict(graph: DiGraph) -> dict:
    """JSON-serializable snapshot of a (possibly cyclic) directed graph."""
    vertices = list(graph.vertices())
    position = {v: i for i, v in enumerate(vertices)}
    try:
        vertex_table = [json.loads(json.dumps(v)) for v in vertices]
    except (TypeError, ValueError) as exc:
        raise IndexStateError(
            f"vertices are not JSON-serializable: {exc}"
        ) from None
    return {
        "vertices": vertex_table,
        "edges": sorted((position[t], position[h]) for t, h in graph.edges()),
    }


def graph_from_dict(payload: dict) -> DiGraph:
    """Rebuild a :class:`DiGraph` from :func:`graph_to_dict` output."""
    try:
        vertices = [_hashable(v) for v in payload["vertices"]]
        if len(set(vertices)) != len(vertices):
            raise SerializationError(
                "serialized graph vertex table contains duplicates"
            )
        graph = DiGraph(vertices=vertices)
        for tail, head in payload["edges"]:
            graph.add_edge(vertices[tail], vertices[head])
    except SerializationError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"serialized graph payload is malformed: {exc!r}"
        ) from None
    return graph


def save_checkpoint(path: PathLike, graph: DiGraph, meta: dict) -> None:
    """Write a service checkpoint: a graph snapshot plus JSON metadata.

    The artifact is the durable half of the serving layer's recovery
    story (:mod:`repro.service.durability`): *meta* records at least the
    WAL sequence number the snapshot covers, and the header carries a
    format version and a CRC32 over the compressed payload so
    :func:`load_checkpoint` can reject torn or bit-flipped files.
    """
    body = {"meta": dict(meta), "graph": graph_to_dict(graph)}
    raw = json.dumps(body, separators=(",", ":"), sort_keys=True).encode("utf-8")
    header = _CKPT_MAGIC + struct.pack(
        "<HII", _CKPT_VERSION, len(raw), zlib.crc32(raw)
    )
    Path(path).write_bytes(header + zlib.compress(raw, level=6))


def load_checkpoint(path: PathLike) -> tuple[DiGraph, dict]:
    """Load a checkpoint written by :func:`save_checkpoint`.

    Returns ``(graph, meta)``.

    Raises
    ------
    SerializationError
        On bad magic, an unsupported version, truncation, or a checksum
        mismatch — the recovery path relies on this to fall back to an
        older checkpoint.
    """
    blob = Path(path).read_bytes()
    if blob[:4] != _CKPT_MAGIC:
        raise SerializationError(f"{path} is not a TOL checkpoint (bad magic)")
    if len(blob) < 14:
        raise SerializationError(f"{path} is truncated (incomplete header)")
    version, raw_len, checksum = struct.unpack("<HII", blob[4:14])
    if version != _CKPT_VERSION:
        raise SerializationError(
            f"unsupported checkpoint format version {version}"
        )
    try:
        raw = zlib.decompress(blob[14:])
    except zlib.error as exc:
        raise SerializationError(f"{path} is corrupt ({exc})") from None
    if len(raw) != raw_len or zlib.crc32(raw) != checksum:
        raise SerializationError(f"{path} is corrupt (checksum mismatch)")
    try:
        body = json.loads(raw.decode("utf-8"))
        meta = dict(body["meta"])
        graph = graph_from_dict(body["graph"])
    except SerializationError:
        raise
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise SerializationError(
            f"{path} checkpoint body is malformed: {exc!r}"
        ) from None
    return graph, meta


# ----------------------------------------------------------------------
# TOLF pack format: mmap/shm-able frozen snapshots
# ----------------------------------------------------------------------
#
# The ``.tolf`` pack is the zero-copy counterpart of ``.tolx``: instead
# of delta-coded varints it lays the four CSR buffers of a
# :class:`~repro.core.frozen.FrozenTOLIndex` out verbatim, 8-byte
# aligned, so a reader can ``mmap`` the file (or attach the same bytes
# in a ``multiprocessing.shared_memory`` segment) and serve queries
# straight from ``memoryview.cast`` views without materializing arrays.
#
# Layout (little-endian, all sections 8-byte aligned):
#
#   header   64 B   magic "TOLF", version, flags, n, |Lin|, |Lout|,
#                   n_edges, meta_len, crc32(body)
#   body     in_offsets  (n+1) x i64
#            out_offsets (n+1) x i64
#            in_labels   |Lin|  x i32   (+ pad)
#            out_labels  |Lout| x i32   (+ pad)
#            edges       n_edges x 2 x i32  (+ pad)  [optional]
#            meta        meta_len B of JSON
#
# ``meta`` always carries ``vertex_of`` (the frozen vertex table, in
# level order).  Packs written for a full server restore additionally
# carry the original graph (``vertices``/``component_of``/
# ``graph_edges``) so :func:`reachability_index_from_pack` can rebuild
# the condensation front-end with its component ids intact; shared-memory
# publishes omit the edge section and the graph to keep segments small.

_PACK_MAGIC = b"TOLF"
_PACK_VERSION = 1
_PACK_HEADER = struct.Struct("<4sHHqqqqqI")
_PACK_HEADER_SIZE = 64


def hashable_vertex(v):
    """JSON round-trip repair: lists (ex-tuples) back to hashable tuples."""
    return _hashable(v)


def _pad8(n: int) -> int:
    return (-n) % 8


def pack_frozen(frozen, meta: Optional[dict] = None, *,
                include_edges: bool = True) -> bytes:
    """Serialize a :class:`FrozenTOLIndex` to TOLF pack bytes.

    The edge section holds whatever edges *frozen* carries: none for a
    snapshot frozen with ``edges=False``
    (:meth:`~repro.core.frozen.FrozenTOLIndex.from_index`), and none when
    ``include_edges=False``.  Readers that only answer queries never
    touch adjacency; a pack without edges cannot be thawed back into a
    live index.
    """
    meta_doc = dict(meta or {})
    # JSON writes tuples as arrays, so the vertex table encodes as is.
    meta_doc["vertex_of"] = frozen._vertex_of
    meta_blob = json.dumps(
        meta_doc, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")

    n = frozen.num_vertices
    in_off = array("q", frozen._in_offsets)
    out_off = array("q", frozen._out_offsets)
    in_lab = frozen._in_labels
    out_lab = frozen._out_labels
    if not isinstance(in_lab, array) or in_lab.itemsize != 4:
        in_lab = array("i", in_lab)
    if not isinstance(out_lab, array) or out_lab.itemsize != 4:
        out_lab = array("i", out_lab)
    edges = tuple(frozen._edges) if include_edges else ()
    edge_flat = array("i")
    for tail, head in edges:
        edge_flat.append(tail)
        edge_flat.append(head)

    body = io.BytesIO()
    body.write(in_off.tobytes())
    body.write(out_off.tobytes())
    for arr in (in_lab, out_lab, edge_flat):
        blob = arr.tobytes()
        body.write(blob)
        body.write(b"\0" * _pad8(len(blob)))
    body.write(meta_blob)
    raw = body.getvalue()

    header = _PACK_HEADER.pack(
        _PACK_MAGIC, _PACK_VERSION, 0, n, len(in_lab), len(out_lab),
        len(edges), len(meta_blob), zlib.crc32(raw),
    )
    return header + b"\0" * (_PACK_HEADER_SIZE - len(header)) + raw


def unpack_frozen(buf, *, verify: bool = True):
    """Attach a :class:`FrozenTOLIndex` to TOLF pack bytes, zero-copy.

    *buf* is any buffer (bytes, ``mmap``, a ``SharedMemory.buf`` slice).
    The returned index's label/offset buffers are ``memoryview.cast``
    views into *buf* — nothing is copied, and *buf*'s backing object is
    kept alive by the views.  Returns ``(frozen, meta)``.
    """
    from .frozen import FrozenTOLIndex

    view = memoryview(buf)
    if len(view) < _PACK_HEADER_SIZE:
        raise SerializationError("truncated TOLF pack (incomplete header)")
    (magic, version, _flags, n, in_len, out_len, n_edges, meta_len,
     checksum) = _PACK_HEADER.unpack_from(view, 0)
    if magic != _PACK_MAGIC:
        raise SerializationError("not a TOLF pack (bad magic)")
    if version != _PACK_VERSION:
        raise SerializationError(f"unsupported TOLF pack version {version}")

    off_bytes = (n + 1) * 8
    in_bytes = in_len * 4
    out_bytes = out_len * 4
    edge_bytes = n_edges * 2 * 4
    pos = _PACK_HEADER_SIZE
    body_len = (
        2 * off_bytes
        + in_bytes + _pad8(in_bytes)
        + out_bytes + _pad8(out_bytes)
        + edge_bytes + _pad8(edge_bytes)
        + meta_len
    )
    if len(view) < pos + body_len:
        raise SerializationError("truncated TOLF pack (incomplete body)")
    body = view[pos:pos + body_len]
    if verify and zlib.crc32(body) != checksum:
        raise SerializationError("TOLF pack is corrupt (checksum mismatch)")

    def take(nbytes: int, pad: bool = True):
        nonlocal pos
        section = view[pos:pos + nbytes]
        pos += nbytes + (_pad8(nbytes) if pad else 0)
        return section

    in_offsets = take(off_bytes).cast("q")
    out_offsets = take(off_bytes).cast("q")
    in_labels = take(in_bytes).cast("i")
    out_labels = take(out_bytes).cast("i")
    edge_view = take(edge_bytes).cast("i")
    try:
        meta = json.loads(bytes(take(meta_len, pad=False)).decode("utf-8"))
        vertex_of = [_hashable(v) for v in meta["vertex_of"]]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError) as exc:
        raise SerializationError(
            f"TOLF pack metadata is malformed: {exc!r}"
        ) from None
    if len(vertex_of) != n:
        raise SerializationError("TOLF pack vertex table does not match n")
    edges = tuple(
        (edge_view[2 * k], edge_view[2 * k + 1]) for k in range(n_edges)
    )
    id_of = {v: i for i, v in enumerate(vertex_of)}
    frozen = FrozenTOLIndex(
        id_of, vertex_of, in_offsets, in_labels, out_offsets, out_labels,
        edges,
    )
    return frozen, meta


def save_pack(path: PathLike, frozen, meta: Optional[dict] = None) -> None:
    """Atomically write a TOLF pack (tmp file + rename)."""
    path = Path(path)
    blob = pack_frozen(frozen, meta)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(blob)
    os.replace(tmp, path)


def load_pack(path: PathLike, *, mmap_file: bool = True):
    """Load a TOLF pack from disk; returns ``(frozen, meta)``.

    With ``mmap_file=True`` (default) the pack is memory-mapped and the
    index's buffers are views into the mapping — the file's pages are
    shared, unmodified, between every process that maps it.  The mapping
    stays alive as long as the returned index does.
    """
    path = Path(path)
    if mmap_file:
        with open(path, "rb") as fh:
            try:
                mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError as exc:  # zero-length file
                raise SerializationError(f"{path} is empty: {exc}") from None
        return unpack_frozen(mapped)
    return unpack_frozen(path.read_bytes())


def reachability_index_from_pack(frozen, meta: dict):
    """Rebuild a full :class:`ReachabilityIndex` from a TOLF pack.

    Requires a pack written with the graph sections (``repro pack`` does
    this): ``vertices`` + ``component_of`` + ``graph_edges`` in the meta
    and the DAG edge section present.  Component ids are restored
    verbatim, so the thawed TOL index (whose vertex names *are* component
    ids) lines up with the rebuilt condensation.
    """
    from ..graph.condensation import DynamicCondensation
    from .index import ReachabilityIndex

    for key in ("vertices", "component_of", "graph_edges"):
        if key not in meta:
            raise SerializationError(
                f"pack has no {key!r} metadata; it was written without the "
                "graph (e.g. a shared-memory publish) and cannot boot a "
                "server — re-pack with `repro pack`"
            )
    if not frozen._edges and frozen.num_vertices > 1:
        raise SerializationError(
            "pack has no DAG edge section and cannot be thawed"
        )
    vertices = [_hashable(v) for v in meta["vertices"]]
    component_of = dict(zip(vertices, meta["component_of"]))
    graph = DiGraph(vertices=vertices)
    for tail, head in meta["graph_edges"]:
        graph.add_edge(vertices[tail], vertices[head])
    condensation = DynamicCondensation.restore(graph, component_of)
    tol = frozen.thaw()
    return ReachabilityIndex.restore(condensation, tol)
