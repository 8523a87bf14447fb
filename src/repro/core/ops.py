"""The one update representation: :class:`UpdateOp`.

Before this module, four surfaces each carried their own encoding of "a
pending index mutation":

* the service's update path held ``UpdateOp`` objects with trace-style
  short kinds (``addv``/``delv``/``adde``/``dele``),
* WAL records serialized those through their own dict codec,
* the net protocol's update envelope shipped the same dicts under a
  different name, and
* ``serve-replay`` re-parsed trace lines into yet another shape before
  converting.

:class:`UpdateOp` is now the single in-memory value all of them
construct and consume.  The canonical ``kind`` names match the index
API verbs (``insert_vertex`` / ``delete_vertex`` / ``insert_edge`` /
``delete_edge``); :meth:`from_dict` is versioned and still accepts the
legacy short kinds, so WAL files and wire payloads written by earlier
releases keep decoding.  :meth:`to_dict` always emits the canonical
form, and the encoding is deterministic: ``to_dict`` → JSON with sorted
keys → ``from_dict`` → ``to_dict`` is byte-identical (pinned by
``tests/core/test_ops.py``).

Vertices must be JSON-serializable; tuple vertices round-trip back to
tuples through :func:`hashable_vertex`, which pack meta and the wire
protocol use too.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass

from ..errors import WorkloadError

__all__ = ["UpdateOp", "KINDS", "hashable_vertex"]

Vertex = Hashable

#: Canonical update kinds, matching the index API verbs.
KINDS = ("insert_vertex", "delete_vertex", "insert_edge", "delete_edge")

#: Legacy (v1) short kinds, mirroring the trace grammar of
#: :mod:`repro.bench.trace`.  Accepted on decode, never emitted.
_LEGACY_KINDS = {
    "addv": "insert_vertex",
    "delv": "delete_vertex",
    "adde": "insert_edge",
    "dele": "delete_edge",
}


def hashable_vertex(v):
    """JSON round-trip repair: lists (ex-tuples) back to hashable tuples."""
    return tuple(hashable_vertex(x) for x in v) if isinstance(v, list) else v


@dataclass(frozen=True)
class UpdateOp:
    """One pending index mutation.

    ``kind`` is one of :data:`KINDS`; constructing with a legacy short
    kind (``addv``/``delv``/``adde``/``dele``) normalizes it.  Use the
    classmethod constructors; they normalize arguments and keep the
    unused fields ``None``.

    An ``insert_vertex``'s neighbour lists are deduplicated in
    first-seen order (as the index does), so :meth:`apply_to_graph`
    never meets the same edge twice halfway through an op.
    """

    kind: str
    vertex: Vertex = None
    ins: tuple[Vertex, ...] = ()
    outs: tuple[Vertex, ...] = ()
    tail: Vertex = None
    head: Vertex = None

    def __post_init__(self) -> None:
        kind = _LEGACY_KINDS.get(self.kind, self.kind)
        if kind not in KINDS:
            raise WorkloadError(f"unknown update kind {self.kind!r}")
        if kind != self.kind:
            object.__setattr__(self, "kind", kind)
        if kind == "insert_vertex":
            object.__setattr__(self, "ins", tuple(dict.fromkeys(self.ins)))
            object.__setattr__(self, "outs", tuple(dict.fromkeys(self.outs)))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def insert_vertex(
        cls,
        v: Vertex,
        in_neighbors: Iterable[Vertex] = (),
        out_neighbors: Iterable[Vertex] = (),
    ) -> "UpdateOp":
        """A pending ``insert_vertex(v, ins, outs)``."""
        return cls(
            "insert_vertex",
            vertex=v,
            ins=in_neighbors,
            outs=out_neighbors,
        )

    @classmethod
    def delete_vertex(cls, v: Vertex) -> "UpdateOp":
        """A pending ``delete_vertex(v)``."""
        return cls("delete_vertex", vertex=v)

    @classmethod
    def insert_edge(cls, tail: Vertex, head: Vertex) -> "UpdateOp":
        """A pending ``insert_edge(tail, head)``."""
        return cls("insert_edge", tail=tail, head=head)

    @classmethod
    def delete_edge(cls, tail: Vertex, head: Vertex) -> "UpdateOp":
        """A pending ``delete_edge(tail, head)``."""
        return cls("delete_edge", tail=tail, head=head)

    # ------------------------------------------------------------------
    # Encoding — the one dict form shared by WAL records and the wire
    # ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, payload: dict) -> "UpdateOp":
        """Decode a :meth:`to_dict` dict (WAL record / wire payload).

        Versioned: legacy short kinds written by earlier releases
        (``addv``/``delv``/``adde``/``dele``) are accepted and
        normalized, so a PR-5-era WAL file still replays.

        Raises
        ------
        WorkloadError
            On an unknown kind or missing fields.
        """
        try:
            kind = _LEGACY_KINDS.get(payload["kind"], payload["kind"])
            if kind == "insert_vertex":
                return cls.insert_vertex(
                    hashable_vertex(payload["vertex"]),
                    [hashable_vertex(v) for v in payload.get("ins", ())],
                    [hashable_vertex(v) for v in payload.get("outs", ())],
                )
            if kind == "delete_vertex":
                return cls.delete_vertex(hashable_vertex(payload["vertex"]))
            if kind in ("insert_edge", "delete_edge"):
                return cls(
                    kind,
                    tail=hashable_vertex(payload["tail"]),
                    head=hashable_vertex(payload["head"]),
                )
        except (KeyError, TypeError) as exc:
            raise WorkloadError(
                f"malformed wire-format update: {exc!r}"
            ) from None
        raise WorkloadError(f"unknown wire update kind {payload.get('kind')!r}")

    def to_dict(self) -> dict:
        """JSON-compatible canonical encoding (inverse of :meth:`from_dict`)."""
        if self.kind == "insert_vertex":
            return {
                "kind": "insert_vertex",
                "vertex": self.vertex,
                "ins": list(self.ins),
                "outs": list(self.outs),
            }
        if self.kind == "delete_vertex":
            return {"kind": "delete_vertex", "vertex": self.vertex}
        return {"kind": self.kind, "tail": self.tail, "head": self.head}

    @classmethod
    def from_trace_op(cls, op) -> "UpdateOp":
        """Adapt a mutation :class:`~repro.bench.trace.TraceOp`."""
        if op.kind == "addv":
            return cls.insert_vertex(op.vertex, op.ins, op.outs)
        if op.kind == "delv":
            return cls.delete_vertex(op.vertex)
        if op.kind == "adde":
            return cls.insert_edge(op.tail, op.head)
        if op.kind == "dele":
            return cls.delete_edge(op.tail, op.head)
        raise WorkloadError(f"trace op {op.kind!r} is not an update")

    @property
    def payload(self) -> dict:
        """The kind-specific arguments of :meth:`to_dict`, without ``kind``."""
        d = self.to_dict()
        del d["kind"]
        return d

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------

    def apply(self, index) -> None:
        """Execute this op against any index with the vertex/edge API."""
        if self.kind == "insert_vertex":
            index.insert_vertex(self.vertex, self.ins, self.outs)
        elif self.kind == "delete_vertex":
            index.delete_vertex(self.vertex)
        elif self.kind == "insert_edge":
            index.insert_edge(self.tail, self.head)
        else:
            index.delete_edge(self.tail, self.head)

    def apply_to_graph(self, graph) -> None:
        """Apply this op to a plain :class:`~repro.graph.digraph.DiGraph`.

        Used by WAL replay during recovery, by the service after an
        index kernel failed (the rest of the batch goes to the served
        graph alone), and the oracle tests — all of which need the
        *graph* effect of an op without touching any index.  For an op
        whose neighbours exist, a :class:`~repro.errors.ReproError` (the
        vertex or edge already exists, or does not) is raised before
        *graph* changes, as the index raises it before its graph moves:
        recovery skips a record, and the service rejects an op, by it.
        """
        if self.kind == "insert_vertex":
            graph.add_vertex(self.vertex)
            for u in self.ins:
                graph.add_edge(u, self.vertex)
            for w in self.outs:
                graph.add_edge(self.vertex, w)
        elif self.kind == "delete_vertex":
            graph.remove_vertex(self.vertex)
        elif self.kind == "insert_edge":
            graph.add_edge(self.tail, self.head)
        else:
            graph.remove_edge(self.tail, self.head)

    def referenced_vertices(self) -> tuple[Vertex, ...]:
        """Vertices this op requires to already exist.

        For ``insert_vertex`` that is the neighbor lists (the inserted
        vertex itself is new); for the other kinds, every named vertex.
        """
        if self.kind == "insert_vertex":
            return self.ins + self.outs
        if self.kind == "delete_vertex":
            return (self.vertex,)
        return (self.tail, self.head)

    def __str__(self) -> str:
        if self.kind == "insert_vertex":
            return (
                f"insert_vertex {self.vertex} "
                f"in={list(self.ins)} out={list(self.outs)}"
            )
        if self.kind == "delete_vertex":
            return f"delete_vertex {self.vertex}"
        return f"{self.kind} {self.tail} {self.head}"
