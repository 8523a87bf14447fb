"""Encoding contract of :class:`repro.core.ops.UpdateOp`.

The one update representation is shared by the service queue, WAL
records, the wire protocol, and serve-replay — so its codec must be
exact: ``to_dict`` -> JSON -> ``from_dict`` -> ``to_dict`` is required
to be *byte-identical* (deterministic JSON with sorted keys), and the
versioned decoder must keep accepting the legacy short kinds that PR-5
era WAL files and wire payloads carry.
"""

import json
import struct
import zlib

import pytest
from hypothesis import given, strategies as st

from repro.core.ops import KINDS, UpdateOp
from repro.errors import WorkloadError
from repro.service.durability import WriteAheadLog, recover_state

# ----------------------------------------------------------------------
# Hypothesis strategies: JSON-representable hashable vertices.
# ----------------------------------------------------------------------

_scalar = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.text(max_size=12),
    st.booleans(),
    st.none(),
)
_vertex = st.one_of(_scalar, st.tuples(_scalar, _scalar))


@st.composite
def update_ops(draw):
    kind = draw(st.sampled_from(KINDS))
    if kind == "insert_vertex":
        return UpdateOp.insert_vertex(
            draw(_vertex),
            draw(st.lists(_vertex, max_size=4)),
            draw(st.lists(_vertex, max_size=4)),
        )
    if kind == "delete_vertex":
        return UpdateOp.delete_vertex(draw(_vertex))
    if kind == "insert_edge":
        return UpdateOp.insert_edge(draw(_vertex), draw(_vertex))
    return UpdateOp.delete_edge(draw(_vertex), draw(_vertex))


def _canonical_json(op: UpdateOp) -> bytes:
    return json.dumps(
        op.to_dict(), separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------


@given(update_ops())
def test_dict_round_trip_is_identity(op):
    assert UpdateOp.from_dict(op.to_dict()) == op


@given(update_ops())
def test_json_round_trip_is_byte_identical(op):
    blob = _canonical_json(op)
    decoded = UpdateOp.from_dict(json.loads(blob.decode("utf-8")))
    assert _canonical_json(decoded) == blob


@given(op=update_ops())
def test_wal_bytes_round_trip_is_byte_identical(tmp_path_factory, op):
    """Append -> scan -> re-encode reproduces the exact record bytes."""
    directory = tmp_path_factory.mktemp("wal")
    path = directory / "wal.log"
    with WriteAheadLog(path, fsync="never") as wal:
        wal.append(op)
    first_image = path.read_bytes()
    # Decode what landed on disk, rewrite it through a second log, and
    # require the byte images to match: nothing about the codec may
    # depend on which process (or release) wrote the record.
    with WriteAheadLog(path, fsync="never") as wal:
        records = wal.records()
    assert [o for _, o in records] == [op]
    path2 = directory / "wal2.log"
    with WriteAheadLog(path2, fsync="never") as wal2:
        wal2.append(records[0][1])
    assert path2.read_bytes() == first_image


def test_tuple_vertices_survive_json():
    op = UpdateOp.insert_vertex(("a", 1), [("b", 2)], [("c", (3, 4))])
    decoded = UpdateOp.from_dict(json.loads(_canonical_json(op)))
    assert decoded == op
    assert decoded.vertex == ("a", 1)
    assert decoded.outs == (("c", (3, 4)),)


def test_repeated_neighbours_are_deduplicated_in_first_seen_order():
    op = UpdateOp.insert_vertex("e", ["c", "a", "c"], ["d", "d", "b"])
    assert op.ins == ("c", "a")
    assert op.outs == ("d", "b")
    assert op == UpdateOp.insert_vertex("e", ["c", "a"], ["d", "b"])
    direct = UpdateOp("insert_vertex", vertex="e", ins=("c", "c"))
    assert direct.ins == ("c",)


def test_repeated_neighbour_applies_to_a_graph_once():
    from repro.graph.digraph import DiGraph

    graph = DiGraph(edges=[("a", "b"), ("b", "c")])
    UpdateOp.insert_vertex("e", in_neighbors=["c", "c"]).apply_to_graph(graph)
    assert graph.has_edge("c", "e")
    assert graph.num_edges == 3


def test_deduplicated_op_round_trips_byte_identically(tmp_path):
    op = UpdateOp.insert_vertex("e", ["c", ("t", 1), "c", ("t", 1)], [2, 2])
    blob = _canonical_json(op)
    assert json.loads(blob)["ins"] == ["c", ["t", 1]]
    assert _canonical_json(UpdateOp.from_dict(json.loads(blob))) == blob
    with WriteAheadLog(tmp_path / "wal.log", fsync="never") as wal:
        wal.append(op)
        [(_, decoded)] = wal.records()
    assert decoded == op
    with WriteAheadLog(tmp_path / "wal2.log", fsync="never") as wal2:
        wal2.append(decoded)
    assert (tmp_path / "wal2.log").read_bytes() == (
        tmp_path / "wal.log"
    ).read_bytes()


# ----------------------------------------------------------------------
# Versioned decode: legacy short kinds
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "legacy, canonical",
    [
        ("addv", "insert_vertex"),
        ("delv", "delete_vertex"),
        ("adde", "insert_edge"),
        ("dele", "delete_edge"),
    ],
)
def test_legacy_short_kinds_normalize(legacy, canonical):
    if canonical == "insert_vertex":
        payload = {"kind": legacy, "vertex": 7, "ins": [1], "outs": [2]}
    elif canonical == "delete_vertex":
        payload = {"kind": legacy, "vertex": 7}
    else:
        payload = {"kind": legacy, "tail": 1, "head": 2}
    op = UpdateOp.from_dict(payload)
    assert op.kind == canonical
    # Re-encoding always emits the canonical kind, never the legacy one.
    assert op.to_dict()["kind"] == canonical


def test_unknown_kind_rejected():
    with pytest.raises(WorkloadError):
        UpdateOp.from_dict({"kind": "truncate_graph"})
    with pytest.raises(WorkloadError):
        UpdateOp("truncate_graph")


def test_constructor_normalizes_short_kind():
    assert UpdateOp("addv", vertex=3).kind == "insert_vertex"
    assert UpdateOp("dele", tail=1, head=2).kind == "delete_edge"


# ----------------------------------------------------------------------
# A PR-5-era WAL (short kinds on disk) still recovers
# ----------------------------------------------------------------------

_WAL_MAGIC = b"TOLWAL1\n"
_WAL_BASE = struct.Struct("<Q")
_RECORD_HEADER = struct.Struct("<II")


def _legacy_record(seq: int, payload: dict) -> bytes:
    body = json.dumps(
        {"seq": seq, "op": payload}, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    return _RECORD_HEADER.pack(len(body), zlib.crc32(body)) + body


def test_pr5_era_wal_recovers(tmp_path):
    """Hand-build a WAL whose records use the old short kinds."""
    directory = tmp_path / "durable"
    directory.mkdir()
    legacy_ops = [
        {"kind": "addv", "vertex": "a", "ins": [], "outs": []},
        {"kind": "addv", "vertex": "b", "ins": [], "outs": []},
        {"kind": "adde", "tail": "a", "head": "b"},
        {"kind": "addv", "vertex": "c", "ins": ["b"], "outs": []},
        {"kind": "dele", "tail": "a", "head": "b"},
        {"kind": "delv", "vertex": "c"},
    ]
    blob = _WAL_MAGIC + _WAL_BASE.pack(0)
    for seq, payload in enumerate(legacy_ops, start=1):
        blob += _legacy_record(seq, payload)
    (directory / "wal.log").write_bytes(blob)

    report = recover_state(directory, fsync="never")
    assert report.replayed == len(legacy_ops)
    assert report.skipped == 0
    graph = report.graph
    assert sorted(graph.vertices()) == ["a", "b"]
    assert graph.num_edges == 0
