"""Tests for the TOLF pack format (zero-copy frozen-index serialization).

The pack is the repo's one file format: ``repro build`` writes it, ``repro serve --snapshot`` mmaps it, and the shared-memory
publisher ships it between processes.  These tests cover byte-level
round trips, zero-copy attach over mmap and ``SharedMemory``, the
Equation-1 kernel over memoryview-backed buffers, corruption
detection, the interned-id label layout (free and recycled ids, the
checks on the ids a pack carries, the refusal of level-rank label
packs), and the full ``ReachabilityIndex`` restore path (including
applying updates *after* a restore).
"""

import gc
import random
from array import array
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frozen import freeze
from repro.core.index import ReachabilityIndex, TOLIndex
from repro.core.labeling import witness_id
from repro.core.ops import hashable_vertex
from repro.core.serialize import (
    decode_pack,
    encode_pack,
    load_index,
    pack_frozen,
    pack_index,
    pack_snapshot,
    save_index,
    unpack_frozen,
    unpack_index,
    unpack_snapshot,
)
from repro.errors import SerializationError
from repro.graph.digraph import DiGraph
from repro.graph.generators import figure1_dag, random_dag
from repro.graph.traversal import bidirectional_reachable


@pytest.fixture(scope="module")
def fig1_frozen():
    return freeze(TOLIndex.build(figure1_dag(), order="butterfly-u"))


def all_pairs(vertices):
    return [(s, t) for s in vertices for t in vertices]


class TestPackRoundTrip:
    def test_figure1_all_pairs(self, fig1_frozen):
        blob = pack_frozen(fig1_frozen)
        thawed, meta = unpack_frozen(blob)
        for s, t in all_pairs("abcdefgh"):
            assert thawed.query(s, t) == fig1_frozen.query(s, t), (s, t)
        assert meta["vertex_of"] == list(fig1_frozen._vertex_of)

    def test_buffers_are_views_not_copies(self, fig1_frozen):
        blob = pack_frozen(fig1_frozen)
        thawed, _ = unpack_frozen(blob)
        # Zero-copy: the attached index reads straight out of the pack.
        assert isinstance(thawed._in_labels, memoryview)
        assert isinstance(thawed._in_offsets, memoryview)
        assert thawed._in_offsets.itemsize == 8
        assert thawed._in_labels.itemsize == 4

    def test_label_views_and_sizes_survive(self, fig1_frozen):
        thawed, _ = unpack_frozen(pack_frozen(fig1_frozen))
        assert thawed.num_vertices == fig1_frozen.num_vertices
        assert thawed.size() == fig1_frozen.size()
        for v in "abcdefgh":
            assert thawed.in_labels(v) == fig1_frozen.in_labels(v)
            assert thawed.out_labels(v) == fig1_frozen.out_labels(v)

    def test_random_dag_matches_oracle(self):
        graph = random_dag(60, 180, seed=23)
        frozen = freeze(TOLIndex.build(graph, order="butterfly-u"))
        thawed, _ = unpack_frozen(pack_frozen(frozen))
        rng = random.Random(5)
        vertices = list(graph.vertices())
        for _ in range(400):
            s, t = rng.choice(vertices), rng.choice(vertices)
            expected = bidirectional_reachable(graph, s, t)
            assert thawed.query(s, t) == expected, (s, t)

    def test_meta_payload_survives(self, fig1_frozen):
        meta = {"epoch": 42, "note": "hello", "vertices": [["u", 1], "v"]}
        _, out = unpack_frozen(pack_frozen(fig1_frozen, meta))
        assert out["epoch"] == 42
        assert out["note"] == "hello"
        # JSON turns tuples into lists; hashable_vertex undoes it.
        assert hashable_vertex(out["vertices"][0]) == ("u", 1)

    def test_include_edges_false_drops_edges_and_thaw(self, fig1_frozen):
        thawed, _ = unpack_frozen(
            pack_frozen(fig1_frozen, include_edges=False)
        )
        assert thawed._edges == ()
        assert thawed.query("a", "h") == fig1_frozen.query("a", "h")

    def test_freeze_without_edges_packs_like_include_edges_false(self):
        index = TOLIndex.build(random_dag(40, 100, seed=8), order="butterfly-u")
        bare = freeze(index, edges=False)
        assert bare._edges == ()
        assert pack_frozen(bare) == pack_frozen(
            freeze(index), include_edges=False
        )

    def test_thaw_after_round_trip_is_updatable(self, fig1_frozen):
        thawed, _ = unpack_frozen(pack_frozen(fig1_frozen))
        live = thawed.thaw()
        # Find an incomparable pair so the insert stays acyclic.
        s, t = next(
            (s, t)
            for s, t in all_pairs("abcdefgh")
            if s != t and not live.query(s, t) and not live.query(t, s)
        )
        live.insert_edge(s, t)
        assert live.query(s, t)
        live.labeling.check_invariants()

    def test_empty_index(self):
        frozen = freeze(TOLIndex.build(DiGraph(), order="butterfly-u"))
        thawed, _ = unpack_frozen(pack_frozen(frozen))
        assert thawed.num_vertices == 0
        assert thawed.size() == 0


class TestNonIntVertices:
    """Tuple, str and int vertices side by side, nested tuples included."""

    @pytest.fixture(scope="class")
    def mixed(self):
        graph = DiGraph()
        edges = [
            (("a", 1), "b"), ("b", 3), (3, ("c", (2, "d"))),
            (("a", 1), "e"), ("e", 7), (7, ("c", (2, "d"))),
        ]
        for tail, head in edges:
            graph.add_edge(tail, head)
        return graph, freeze(TOLIndex.build(graph, order="butterfly-u"))

    def test_round_trip_keeps_vertex_of_and_answers(self, mixed):
        graph, frozen = mixed
        thawed, meta = unpack_frozen(pack_frozen(frozen))
        assert thawed._vertex_of == frozen._vertex_of
        assert [hashable_vertex(v) for v in meta["vertex_of"]] == list(
            frozen._vertex_of
        )
        for s, t in all_pairs(list(graph.vertices())):
            assert thawed.query(s, t) == frozen.query(s, t), (s, t)
            assert thawed.query(s, t) == bidirectional_reachable(graph, s, t)

    def test_meta_bytes_match_per_vertex_json_round_trip(self, mixed):
        import json
        import struct

        _, frozen = mixed
        meta = {"epoch": 3, "vertices": [["a", 1], "b"]}
        blob = pack_frozen(frozen, meta)
        # The encoding this format has always written: each vertex
        # normalised through its own JSON round trip first.
        doc = dict(meta)
        doc["vertex_of"] = [
            json.loads(json.dumps(v)) for v in frozen._vertex_of
        ]
        expected = json.dumps(
            doc, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
        assert blob.endswith(expected)
        # Header: magic, version, flags, n, |in|, |out|, |E|, meta_len.
        meta_len = struct.unpack_from("<q", blob, 40)[0]
        assert meta_len == len(expected)


def _both_buffers(a, b):
    """``(a, b)`` as live ``array('i')``s, then as slices of one
    ``memoryview(...).cast('i')`` buffer, the way a reader holds them."""
    yield array("i", a), array("i", b)
    view = memoryview(array("i", [*a, *b]).tobytes()).cast("i")
    yield view[:len(a)], view[len(a):]


# Ids of s and t that appear in no list unless a test puts them there.
S, T = 1000, 1001


class TestGallopingIntersect:
    """`witness_id`, the one Equation-1 kernel, over array and view buffers.

    Every branch: an endpoint witness found in the shorter or in the
    longer side (or its bisect skipped outside the side's range), the
    disjoint-range bail-out, the shorter side's probes into the longer
    one hitting or missing, empty sides, and ``a`` shorter than ``b``
    (the sides swapped so that ``a`` is the longer).
    """

    def test_short_a_gallops_into_long_b(self):
        ins = list(range(0, 200, 3))
        for a, b in _both_buffers([7], ins):
            assert witness_id(a, b, S, T) == -1
        for a, b in _both_buffers([9], ins):
            assert witness_id(a, b, S, T) == 9

    def test_short_b_gallops_into_long_a(self):
        outs = list(range(1, 400, 5))
        for a, b in _both_buffers(outs, [11]):
            assert witness_id(a, b, S, T) == 11
        for a, b in _both_buffers(outs, [12]):
            assert witness_id(a, b, S, T) == -1

    def test_balanced_linear_merge(self):
        # Balanced sides probe like skewed ones; the smallest common id wins.
        for a, b in _both_buffers([1, 4, 9, 16, 25], [2, 4, 8, 16, 32]):
            assert witness_id(a, b, S, T) == 4
        for a, b in _both_buffers([1, 3, 5, 7], [2, 4, 6, 8]):
            assert witness_id(a, b, S, T) == -1

    def test_empty_sides(self):
        for a, b in _both_buffers([], [1, 2, 3]):
            assert witness_id(a, b, S, T) == -1
            assert witness_id(b, a, S, T) == -1
            assert witness_id(a, a, S, T) == -1
        for a, b in _both_buffers([], [S]):
            assert witness_id(a, b, S, T) == S  # s ∈ Lin(t), Lout(s) empty
        for a, b in _both_buffers([T], []):
            assert witness_id(a, b, S, T) == T  # t ∈ Lout(s), Lin(t) empty

    def test_gallops_agree_over_memoryview_buffers(self):
        # The serving path runs the kernel over memoryview.cast slices;
        # round-trip through the pack and re-check every pair.
        graph = random_dag(40, 160, seed=9)
        frozen = freeze(TOLIndex.build(graph, order="butterfly-u"))
        thawed, _ = unpack_frozen(pack_frozen(frozen))
        for s in graph.vertices():
            for t in graph.vertices():
                assert thawed.query(s, t) == frozen.query(s, t), (s, t)
                assert thawed.witness(s, t) == frozen.witness(s, t), (s, t)

    def test_same_id_is_its_own_witness(self):
        for a, b in _both_buffers([], []):
            assert witness_id(a, b, S, S) == S

    def test_endpoint_in_the_shorter_side(self):
        long = list(range(0, 100, 2))
        for a, b in _both_buffers([5, T], long):  # Lout(s) shorter
            assert witness_id(a, b, S, T) == T
        for a, b in _both_buffers(long, [5, S]):  # Lin(t) shorter
            assert witness_id(a, b, S, T) == S

    def test_endpoint_in_the_longer_side(self):
        for a, b in _both_buffers([*range(0, 100, 2), T], [5]):
            assert witness_id(a, b, S, T) == T
        for a, b in _both_buffers([5], [*range(0, 100, 2), S]):
            assert witness_id(a, b, S, T) == S

    def test_endpoint_outside_the_longer_sides_range(self):
        # t below Lout(s)'s first id, s above Lin(t)'s last: both
        # endpoint bisects are skipped, and the probes decide.
        for a, b in _both_buffers([10, 20, 30, 40], [5, 20]):
            assert witness_id(a, b, 999, 3) == 20
        for a, b in _both_buffers([20, 60], [10, 20, 30, 40]):
            assert witness_id(a, b, 50, 3) == 20

    def test_disjoint_ranges(self):
        for a, b in _both_buffers([1, 2, 3, 4], [10, 11]):
            assert witness_id(a, b, S, T) == -1
            assert witness_id(b, a, S, T) == -1

    def test_probe_hit_and_miss(self):
        long = list(range(0, 300, 3))
        for a, b in _both_buffers(long, [1, 4, 151, 299]):
            assert witness_id(a, b, S, T) == -1  # every probe misses
        for a, b in _both_buffers(long, [1, 4, 150, 297]):
            assert witness_id(a, b, S, T) == 150  # first hit
        for a, b in _both_buffers(long, [1, 400]):
            assert witness_id(a, b, S, T) == -1  # probe runs off the end

    def test_swapped_sides(self):
        # a shorter than b swaps roles; the answer follows Equation 1,
        # and t ∈ Lout(s) outranks s ∈ Lin(t) in both length orders.
        for a, b in _both_buffers([3, 8], [1, 2, 8, 9, 12]):
            assert witness_id(a, b, S, T) == 8
            assert witness_id(b, a, S, T) == 8
        for a, b in _both_buffers([T], [1, S]):
            assert witness_id(a, b, S, T) == T
        for a, b in _both_buffers([1, T], [S]):
            assert witness_id(a, b, S, T) == T


SORTED_IDS = st.lists(st.integers(0, 40), unique=True).map(sorted)


@settings(max_examples=300, deadline=None)
@given(a=SORTED_IDS, b=SORTED_IDS, sid=st.integers(0, 40), tid=st.integers(0, 40))
def test_witness_id_is_equation_1(a, b, sid, tid):
    witnesses = ({*a, sid} & {*b, tid})
    if sid == tid:
        expected = sid
    elif tid in a:
        expected = tid
    elif sid in b:
        expected = sid
    else:
        expected = min(set(a) & set(b), default=-1)
    for a_buf, b_buf in _both_buffers(a, b):
        w = witness_id(a_buf, b_buf, sid, tid)
        assert w == expected
        assert (w == -1) == (not witnesses)


class TestPackFiles:
    # save_index/load_index are the one file path; load_index mmaps.
    def test_file_round_trip_mmap(self, fig1_frozen, tmp_path):
        path = tmp_path / "fig1.tolf"
        save_index(fig1_frozen.thaw(), path)
        thawed = load_index(path)
        for s, t in all_pairs("abcdefgh"):
            assert thawed.query(s, t) == fig1_frozen.query(s, t)

    def test_file_round_trip_without_mmap(self, fig1_frozen, tmp_path):
        path = tmp_path / "fig1.tolf"
        save_index(fig1_frozen.thaw(), path)
        thawed = unpack_index(path.read_bytes())
        assert thawed.query("a", "h") == fig1_frozen.query("a", "h")

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "empty.tolf"
        path.write_bytes(b"")
        with pytest.raises(SerializationError):
            load_index(path)


class TestCorruption:
    def test_bad_magic(self, fig1_frozen):
        blob = bytearray(pack_frozen(fig1_frozen))
        blob[:4] = b"NOPE"
        with pytest.raises(SerializationError, match="magic"):
            unpack_frozen(bytes(blob))

    def test_bad_version(self, fig1_frozen):
        blob = bytearray(pack_frozen(fig1_frozen))
        blob[4] = 0xFF
        with pytest.raises(SerializationError, match="version"):
            unpack_frozen(bytes(blob))

    def test_truncated_header(self):
        with pytest.raises(SerializationError, match="header"):
            unpack_frozen(b"TOLF")

    def test_truncated_body(self, fig1_frozen):
        blob = pack_frozen(fig1_frozen)
        with pytest.raises(SerializationError, match="body"):
            unpack_frozen(blob[: len(blob) - 8])

    def test_flipped_body_byte_fails_checksum(self, fig1_frozen):
        blob = bytearray(pack_frozen(fig1_frozen))
        blob[80] ^= 0xFF
        with pytest.raises(SerializationError, match="checksum"):
            unpack_frozen(bytes(blob))
        # verify=False skips the crc (the shm fast path trusts the
        # seqlock instead) — no exception from the checksum itself.
        unpack_frozen(bytes(blob), verify=False)


class TestSharedMemoryAttach:
    def test_freeze_pack_attach_query(self, fig1_frozen):
        from multiprocessing import shared_memory

        blob = pack_frozen(fig1_frozen, {"epoch": 1}, include_edges=False)
        shm = shared_memory.SharedMemory(create=True, size=len(blob))
        try:
            shm.buf[: len(blob)] = blob
            thawed, meta = unpack_frozen(shm.buf[: len(blob)])
            assert meta["epoch"] == 1
            for s, t in all_pairs("abcdefgh"):
                assert thawed.query(s, t) == fig1_frozen.query(s, t)
            del thawed
            gc.collect()
        finally:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - diagnostics only
                pass
            shm.unlink()


class TestReachabilityIndexFromPack:
    """The full-pack restore path that `repro serve --snapshot` boots."""

    def _full_pack(self, graph, order="butterfly-u"):
        index = ReachabilityIndex(graph, order=order)
        return index, pack_index(index)

    def test_restore_matches_original_on_cyclic_graph(self):
        rng = random.Random(17)
        graph = random_dag(50, 140, seed=17)
        vertices = list(graph.vertices())
        added = 0
        while added < 12:  # back-edges make real SCCs
            s, t = rng.choice(vertices), rng.choice(vertices)
            if s != t and graph.add_edge_if_absent(s, t):
                added += 1
        index, blob = self._full_pack(graph)
        restored = unpack_index(blob)
        restored.condensation.check_invariants()
        for _ in range(300):
            s, t = rng.choice(vertices), rng.choice(vertices)
            assert restored.query(s, t) == index.query(s, t), (s, t)

    def test_updates_apply_after_restore(self):
        graph = random_dag(30, 70, seed=3)
        index, blob = self._full_pack(graph)
        restored = unpack_index(blob)
        rng = random.Random(1)
        vertices = list(graph.vertices())
        applied = 0
        while applied < 15:
            s, t = rng.choice(vertices), rng.choice(vertices)
            if s == t or not graph.add_edge_if_absent(s, t):
                continue
            restored.insert_edge(s, t)
            applied += 1
        restored.condensation.check_invariants()
        for _ in range(200):
            s, t = rng.choice(vertices), rng.choice(vertices)
            expected = bidirectional_reachable(graph, s, t)
            assert restored.query(s, t) == expected, (s, t)

    def test_query_only_pack_refuses_to_boot(self, fig1_frozen):
        blob = pack_frozen(fig1_frozen, {"epoch": 2}, include_edges=False)
        with pytest.raises(SerializationError, match="repro build"):
            unpack_index(blob)


def churned_index():
    """A TOL index whose interner has free ids and recycled ones."""
    index = TOLIndex.build(random_dag(40, 110, seed=12), order="butterfly-u")
    interner = index.labeling.interner
    freed = {interner.id_of(v) for v in (3, 17, 25, 31)}
    for v in (3, 17, 25, 31):
        index.delete_vertex(v)
    index.insert_vertex("r1", [0, 1], [])
    index.insert_vertex("r2", ["r1"], [])
    assert interner.free_count == 2
    assert {interner.id_of("r1"), interner.id_of("r2")} < freed
    return index


class TestIdSpace:
    """Frozen labels and packs keep the live interner's ids."""

    def test_frozen_keeps_the_interner_ids(self):
        index = churned_index()
        frozen = freeze(index)
        interner = index.labeling.interner
        assert frozen._id_of == interner.ids
        assert len(frozen._in_offsets) == interner.capacity + 1
        for i in interner.free_ids:  # a free id has an empty slice
            assert frozen._in_offsets[i] == frozen._in_offsets[i + 1]
            assert frozen._out_offsets[i] == frozen._out_offsets[i + 1]
        vid = interner.id_of("r1")
        lo, hi = frozen._out_offsets[vid], frozen._out_offsets[vid + 1]
        assert frozen._out_labels[lo:hi] == index.labeling.out_ids[vid]

    def test_answers_match_live_before_and_after_snapshot_pack(self):
        index = churned_index()
        frozen = freeze(index, edges=False)
        vertices = list(index.labeling.order)
        reader, _, _ = unpack_snapshot(
            pack_snapshot(frozen, dict.fromkeys(vertices, 0), {"epoch": 1})
        )
        for s, t in all_pairs(vertices):
            expected = index.query(s, t)
            assert frozen.query(s, t) == expected, (s, t)
            assert reader.query(s, t) == expected, (s, t)
            assert reader.witness(s, t) == frozen.witness(s, t)

    def test_pack_index_round_trip_keeps_ids_and_free_list(self):
        index = churned_index()
        restored = unpack_index(pack_index(index))
        assert restored.labeling.equals_labels(index.labeling)
        assert restored.labeling.interner.ids == index.labeling.interner.ids
        assert (restored.labeling.interner.free_ids
                == index.labeling.interner.free_ids)
        assert list(restored.order) == list(index.order)
        restored.labeling.check_invariants()
        # The next insert takes the same recycled id on both sides.
        for idx in (index, restored):
            idx.insert_vertex("r3", [], ["r2"])
        assert restored.labeling.id_of("r3") == index.labeling.id_of("r3")

    def test_thaw_turns_holes_into_the_free_list(self):
        index = churned_index()
        live = freeze(index).thaw()
        assert live.labeling.interner.ids == index.labeling.interner.ids
        assert (sorted(live.labeling.interner.free_ids)
                == sorted(index.labeling.interner.free_ids))
        assert live.labeling.equals_labels(index.labeling)
        live.labeling.check_invariants()


def _repacked(frozen, change):
    """*frozen*'s pack with its ``vertex_id`` section passed through
    *change*."""
    sections, meta = decode_pack(pack_frozen(frozen))
    ids = sections["vertex_id"].tolist()
    change(ids)
    sections["vertex_id"] = array("q", ids)
    return encode_pack(sections, meta)


class TestVertexIdChecks:
    """The ids a pack carries are outside input: bad ones are refused."""

    @pytest.mark.parametrize(
        "change",
        [
            lambda ids: ids.pop(),
            lambda ids: ids.append(ids[0]),
        ],
        ids=["short", "long"],
    )
    def test_misaligned_ids(self, change):
        frozen = freeze(churned_index())
        with pytest.raises(SerializationError, match="does not match"):
            unpack_frozen(_repacked(frozen, change))

    def test_duplicate_ids(self):
        def duplicate(ids):
            ids[1] = ids[0]

        frozen = freeze(churned_index())
        with pytest.raises(SerializationError, match="distinct"):
            unpack_frozen(_repacked(frozen, duplicate))

    @pytest.mark.parametrize("bad", [-1, "capacity"])
    def test_out_of_range_ids(self, bad):
        frozen = freeze(churned_index())
        capacity = len(frozen._in_offsets) - 1

        def out_of_range(ids):
            ids[0] = capacity if bad == "capacity" else bad

        with pytest.raises(SerializationError, match="capacity"):
            unpack_frozen(_repacked(frozen, out_of_range))

    def test_missing_ids(self, fig1_frozen):
        sections, meta = decode_pack(pack_frozen(fig1_frozen))
        del sections["vertex_id"]
        with pytest.raises(SerializationError, match="repro build"):
            unpack_frozen(encode_pack(sections, meta))


def level_rank_pack(index):
    """*index* packed, byte for byte, as ``pack_index`` wrote it before
    labels kept interned ids: rows and labels in level ranks under
    ``in_off``/``in_lab`` (and ``out_*``), ``dag_edge`` as sorted rank
    pairs, then ``intern_ids`` (each vertex's id, in level order) and
    ``free_ids``."""
    labeling = index.labeling
    order = list(labeling.order)
    ids = labeling.interner.ids
    rank = {ids[v]: r for r, v in enumerate(order)}
    rows = {}
    for side, buffers in (("in", labeling.in_ids), ("out", labeling.out_ids)):
        offsets, labels = array("q", [0]), array("i")
        for v in order:
            labels.extend(sorted(rank[u] for u in buffers[ids[v]]))
            offsets.append(len(labels))
        rows[side] = offsets, labels
    position = {v: r for r, v in enumerate(order)}
    sections = {
        "in_off": rows["in"][0],
        "out_off": rows["out"][0],
        "in_lab": rows["in"][1],
        "out_lab": rows["out"][1],
        "dag_edge": array("i", chain.from_iterable(sorted(
            (position[t], position[h]) for t, h in index.graph_copy().edges()
        ))),
    }
    meta = {}
    if all(type(v) is int for v in order):
        sections["vertex_of"] = array("q", order)
    else:
        meta["vertex_of"] = order
    sections["intern_ids"] = array("q", [ids[v] for v in order])
    sections["free_ids"] = array("q", labeling.interner.free_ids)
    return encode_pack(sections, meta)


class TestLevelRankPacksRefused:
    """A label pack in the level-rank layout is refused, never misread:
    with no free ids its rank labels would parse as ids."""

    @pytest.mark.parametrize("make", [
        lambda: TOLIndex.build(random_dag(30, 80, seed=2)),
        lambda: TOLIndex.build(figure1_dag()),
        churned_index,
    ], ids=["int-vertices", "str-vertices", "free-ids"])
    def test_every_reader_refuses(self, make, tmp_path):
        blob = level_rank_pack(make())
        for read in (unpack_index, unpack_frozen, unpack_snapshot):
            with pytest.raises(SerializationError, match="repro build"):
                read(blob)
        path = tmp_path / "old.tolf"
        path.write_bytes(blob)
        with pytest.raises(SerializationError, match="repro build"):
            load_index(path)
