"""Tests for index persistence: TOLF pack round trips and the JSON export."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.index import ReachabilityIndex, TOLIndex
from repro.core.serialize import (
    decode_pack,
    encode_pack,
    index_to_dict,
    load_index,
    pack_graph,
    pack_index,
    save_index,
    unpack_graph,
    unpack_index,
)
from repro.core.validation import find_violations
from repro.errors import IndexStateError, SerializationError
from repro.graph.digraph import DiGraph
from repro.graph.generators import figure1_dag, random_dag

from ..conftest import small_dags


@pytest.fixture
def index():
    return TOLIndex.build(figure1_dag(), order="butterfly-u")


def repack(blob: bytes, edit) -> bytes:
    """Decode a pack, let *edit* change its meta, re-encode (valid CRC)."""
    sections, meta = decode_pack(blob)
    edit(meta)
    return encode_pack(dict(sections), meta)


class TestDictRoundTrip:
    def test_basic(self, index):
        restored = unpack_index(pack_index(index))
        assert restored.labeling.snapshot() == index.labeling.snapshot()
        assert list(restored.order) == list(index.order)
        assert restored.graph_copy() == index.graph_copy()

    def test_dict_is_json_compatible(self, index):
        json.dumps(index_to_dict(index))

    def test_bad_format_rejected(self):
        # A graph-only checkpoint pack is not an index.
        with pytest.raises(IndexStateError):
            unpack_index(pack_graph(figure1_dag(), {}))

    def test_bad_version_rejected(self, index):
        blob = bytearray(pack_index(index))
        blob[4] = 99
        with pytest.raises(IndexStateError):
            unpack_index(bytes(blob))

    def test_duplicate_vertices_rejected(self, index):
        def duplicate(meta):
            meta["vertex_of"][1] = meta["vertex_of"][0]

        with pytest.raises(IndexStateError):
            unpack_index(repack(pack_index(index), duplicate))

    def test_unserializable_vertices_rejected(self):
        idx = TOLIndex.build(DiGraph(vertices=[object()]))
        with pytest.raises(IndexStateError):
            index_to_dict(idx)
        with pytest.raises(IndexStateError):
            pack_index(idx)

    def test_tuple_vertices_round_trip(self):
        g = DiGraph(edges=[((1, "a"), (2, "b"))])
        idx = TOLIndex.build(g)
        restored = unpack_index(pack_index(idx))
        assert restored.query((1, "a"), (2, "b"))


class TestFileRoundTrip:
    @pytest.mark.parametrize("name", ["idx.tolf"])
    def test_round_trip(self, index, tmp_path, name):
        path = tmp_path / name
        save_index(index, path)
        restored = load_index(path)
        assert restored.labeling.snapshot() == index.labeling.snapshot()
        assert restored.query("e", "c") and not restored.query("c", "e")

    def test_corrupt_binary_detected(self, index, tmp_path):
        path = tmp_path / "i.tolf"
        save_index(index, path)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(Exception):  # checksum failure
            load_index(path)

    def test_garbage_file_detected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"\x00\x01\x02 not an index")
        with pytest.raises(IndexStateError):
            load_index(path)

    def test_restored_index_supports_updates(self, index, tmp_path):
        path = tmp_path / "i.tolf"
        save_index(index, path)
        restored = load_index(path)
        restored.insert_vertex("z", in_neighbors=["c"])
        assert restored.query("e", "z")
        restored.delete_vertex("a")
        assert not restored.query("e", "c")
        assert find_violations(restored.graph_copy(), restored.labeling) == []


class TestMalformedInput:
    """Every decode failure must surface as SerializationError.

    A durable-recovery caller (``CheckpointStore.load_latest``) walks
    past corrupt checkpoints by catching exactly this type, so a bare
    ``struct.error`` or ``KeyError`` escaping the parser would abort
    recovery instead of falling back to an older snapshot.
    """

    def test_truncated_binary_index(self, index, tmp_path):
        path = tmp_path / "i.tolf"
        save_index(index, path)
        blob = path.read_bytes()
        for cut in (3, 10, len(blob) // 2, len(blob) - 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(SerializationError):
                load_index(path)

    def test_corrupt_binary_index(self, index, tmp_path):
        path = tmp_path / "i.tolf"
        save_index(index, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SerializationError):
            load_index(path)

    def test_truncated_checkpoint(self):
        blob = pack_graph(figure1_dag(), {"wal_seq": 3})
        for cut in (0, 5, len(blob) - 2):
            with pytest.raises(SerializationError):
                unpack_graph(blob[:cut])

    def test_corrupt_checkpoint_payload(self):
        blob = bytearray(pack_graph(figure1_dag(), {}))
        blob[-1] ^= 0xFF
        with pytest.raises(SerializationError):
            unpack_graph(bytes(blob))

    def test_serialization_error_is_an_index_state_error(self):
        # Pre-existing broad handlers must keep catching the new type.
        assert issubclass(SerializationError, IndexStateError)


class TestCheckpointRoundTrip:
    def test_graph_and_meta_preserved(self):
        graph = random_dag(30, 70, seed=8)
        meta = {"wal_seq": 41, "epoch": 7}
        back, meta_back = unpack_graph(pack_graph(graph, meta))
        assert back == graph
        assert meta_back == meta

    def test_tuple_vertices(self):
        graph = DiGraph(edges=[((1, "a"), (2, "b"))], vertices=[("x", 0)])
        back, _ = unpack_graph(pack_graph(graph, {}))
        assert back == graph


class TestVertexTables:
    """Plain-int tables are i64 sections; anything else is JSON in meta."""

    def test_int_table_is_a_section(self):
        sections, meta = decode_pack(pack_graph(DiGraph(edges=[(1, 2)]), {}))
        assert sections["vertices"].tolist() == [1, 2]
        assert "vertices" not in meta

    @pytest.mark.parametrize("vertices", [
        ["a", "b"],                 # strings
        [("a", 1), ("b", (2, 3))],  # tuples, nested
        [1, "1", None],             # mixed
        [True, 2],                  # bool is not an int vertex
        [2 ** 70, 1],               # beyond i64
    ])
    def test_other_tables_fall_back_to_json(self, vertices):
        graph = DiGraph(vertices=vertices)
        blob = pack_graph(graph, {})
        sections, meta = decode_pack(blob)
        assert "vertices" not in sections
        back, _ = unpack_graph(blob)
        assert list(back.vertices()) == vertices
        assert [type(v) for v in back.vertices()] == [type(v) for v in vertices]

    def test_reachability_index_with_string_vertices(self):
        graph = DiGraph(edges=[("a", "b"), ("b", "a"), ("b", ("c", 1))])
        index = ReachabilityIndex(graph)
        restored = unpack_index(pack_index(index))
        assert isinstance(restored, ReachabilityIndex)
        assert restored.condensation.component_of == (
            index.condensation.component_of
        )
        assert restored.query("a", ("c", 1)) and not restored.query(("c", 1), "a")


class TestInternerPreservation:
    """Round-trips must preserve vertex-id assignment.

    Label buffers store interner ids; if a reload renumbered vertices,
    the restored index would silently answer queries for the wrong
    vertices even though every buffer decoded cleanly.
    """

    def test_ids_stable_across_round_trip(self, tmp_path):
        idx = TOLIndex.build(random_dag(40, 90, seed=12))
        before = dict(idx.labeling.interner.ids)
        path = tmp_path / "i.tolf"
        save_index(idx, path)
        restored = load_index(path)
        assert dict(restored.labeling.interner.ids) == before

    def test_ids_stable_after_deletions(self, tmp_path):
        # Deleting vertices leaves holes in the id space; the free list
        # must survive so post-reload inserts can't collide.
        idx = TOLIndex.build(figure1_dag())
        idx.delete_vertex("b")
        before = dict(idx.labeling.interner.ids)
        path = tmp_path / "i.tolf"
        save_index(idx, path)
        restored = load_index(path)
        assert dict(restored.labeling.interner.ids) == before
        restored.insert_vertex("fresh", in_neighbors=["a"])
        ids = restored.labeling.interner.ids
        assert len(set(ids.values())) == len(ids)  # no id collision
        assert find_violations(restored.graph_copy(), restored.labeling) == []


@given(small_dags())
def test_round_trip_property(graph):
    idx = TOLIndex.build(graph, order="degree")
    restored = unpack_index(pack_index(idx))
    assert restored.labeling.snapshot() == idx.labeling.snapshot()
    assert list(restored.order) == list(idx.order)


def test_component_counter_survives_round_trip():
    # On 0->1->2->3, deleting 3 retires its component id; a restored
    # index must not hand that id out again.
    index = ReachabilityIndex(DiGraph(edges=[(0, 1), (1, 2), (2, 3)]))
    index.delete_vertex(3)
    restored = unpack_index(pack_index(index))
    for copy in (index, restored):
        copy.insert_vertex(99, in_neighbors=[0])
    assert (
        restored.condensation.component(99) == index.condensation.component(99)
    )


def test_split_ids_survive_round_trip():
    # Deleting 10 splits {6, 7, 10, 15} into three pieces.  Tarjan visits
    # them in set iteration order, which differs between this graph and
    # its reload; the pieces must still get the same ids, sources first.
    graph = DiGraph(vertices=[7, 28, 10, 15, 6], edges=[
        (15, 10), (6, 10), (7, 28), (10, 7), (7, 6), (10, 6), (15, 6),
        (10, 15),
    ])
    index = ReachabilityIndex(graph)
    restored = unpack_index(pack_index(index))
    for copy in (index, restored):
        copy.delete_vertex(10)
    cond = index.condensation
    assert restored.condensation.component_of == cond.component_of
    assert sorted([6, 7, 15], key=cond.component_of.get) == [7, 15, 6]


@st.composite
def cyclic_graphs_and_traces(draw):
    """A small graph with back edges, an abstract op trace, a save step."""
    n = draw(st.integers(min_value=2, max_value=8))
    graph = DiGraph(vertices=range(n))
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n))):
        tail = draw(st.integers(0, n - 1))
        head = draw(st.integers(0, n - 1))
        if tail != head:
            graph.add_edge_if_absent(tail, head)
    trace = draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 10 ** 6),
                  st.integers(0, 10 ** 6)),
        max_size=12,
    ))
    return graph, trace, draw(st.integers(0, len(trace)))


def _resolve(index: ReachabilityIndex, step: int, op) -> tuple:
    """Turn an abstract ``(kind, a, b)`` into an op valid on *index*."""
    kind, a, b = op
    graph = index.condensation.graph
    vertices = sorted(graph.vertices())
    edges = sorted(graph.edges())
    if kind == 0 or not vertices:
        ins = vertices[a % len(vertices):][:1] if vertices else []
        outs = vertices[b % len(vertices):][:1] if vertices else []
        return ("insert_vertex", 100 + step, ins, outs)
    if kind == 1:  # a = 0 deletes the newest vertex, retiring the top id
        return ("delete_vertex", vertices[-1 - a % len(vertices)])
    if kind == 2 and edges:
        return ("delete_edge", *edges[a % len(edges)])
    tail, head = vertices[a % len(vertices)], vertices[b % len(vertices)]
    if tail == head or graph.has_edge(tail, head):
        return ("insert_vertex", 100 + step, [tail], [head])
    return ("insert_edge", tail, head)


def _state(index: ReachabilityIndex):
    tol = index.tol
    return (
        tol.labeling.snapshot(),
        list(tol.order),
        dict(tol.labeling.interner.ids),
        tol.labeling.interner.free_ids,
        dict(index.condensation.component_of),
    )


@settings(max_examples=150)
@given(cyclic_graphs_and_traces())
def test_exact_round_trip_under_updates(case):
    graph, trace, save_at = case
    index = ReachabilityIndex(graph)
    copies = [index]
    for step, op in enumerate(trace):
        if step == save_at:
            copies.append(unpack_index(pack_index(index)))
        kind, *args = _resolve(index, step, op)
        for copy in copies:
            getattr(copy, kind)(*args)
        assert all(_state(c) == _state(index) for c in copies), (step, kind)
    if save_at == len(trace):
        assert _state(unpack_index(pack_index(index))) == _state(index)
