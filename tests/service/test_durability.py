"""Unit tests for the durability layer: WAL, checkpoints, recovery.

The crash *matrix* (every named crash point against a BFS oracle) lives
in ``test_recovery.py``; here we pin down each component's contract in
isolation: record round-trips, torn-tail truncation, sequence-number
monotonicity across trims, atomic checkpoint writes with corrupt-file
fallback, and the checkpoint-plus-WAL-suffix composition of
``recover_state``.
"""

import os

import pytest

from repro.core.serialize import encode_pack, pack_graph
from repro.errors import SerializationError
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.graph.traversal import bidirectional_reachable
from repro.service.durability import (
    CheckpointStore,
    DurabilityManager,
    WriteAheadLog,
    recover_state,
)
from repro.service.faults import FaultInjector, InjectedCrash
from repro.service.server import ReachabilityService
from repro.core.ops import UpdateOp


def some_ops():
    return [
        UpdateOp.insert_vertex("a"),
        UpdateOp.insert_vertex("b", in_neighbors=["a"]),
        UpdateOp.insert_edge("a", "b"),
        UpdateOp.delete_edge("a", "b"),
        UpdateOp.delete_vertex("b"),
    ]


class TestWriteAheadLog:
    def test_append_assigns_consecutive_seqs(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal.log") as wal:
            seqs = [wal.append(op) for op in some_ops()]
        assert seqs == [1, 2, 3, 4, 5]

    def test_records_round_trip(self, tmp_path):
        ops = some_ops()
        with WriteAheadLog(tmp_path / "wal.log") as wal:
            for op in ops:
                wal.append(op)
            wal.sync()
        reopened = WriteAheadLog(tmp_path / "wal.log")
        assert reopened.records() == list(enumerate(ops, start=1))
        assert reopened.last_seq == len(ops)
        assert reopened.truncated_bytes == 0
        reopened.close()

    def test_tuple_vertices_survive_the_wire(self, tmp_path):
        op = UpdateOp.insert_vertex(("ns", 7), in_neighbors=[("ns", 1)])
        with WriteAheadLog(tmp_path / "wal.log") as wal:
            wal.append(op)
        [(_, back)] = WriteAheadLog(tmp_path / "wal.log").records()
        assert back == op

    def test_torn_tail_truncated_on_open(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            for op in some_ops():
                wal.append(op)
        # Tear the last record: chop off its final 3 bytes.
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        wal = WriteAheadLog(path)
        assert wal.truncated_bytes > 0
        assert wal.last_seq == 4
        assert [s for s, _ in wal.records()] == [1, 2, 3, 4]
        # The log must be appendable again, continuing the sequence.
        assert wal.append(UpdateOp.insert_vertex("z")) == 5
        wal.close()

    def test_bitflip_truncates_from_the_flip(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            for op in some_ops():
                wal.append(op)
        blob = bytearray(path.read_bytes())
        blob[-4] ^= 0xFF  # corrupt the last record's payload
        path.write_bytes(bytes(blob))
        wal = WriteAheadLog(path)
        assert wal.last_seq == 4
        wal.close()

    def test_injected_torn_write_recovers(self, tmp_path):
        path = tmp_path / "wal.log"
        injector = FaultInjector()
        wal = WriteAheadLog(path, injector=injector)
        wal.append(UpdateOp.insert_vertex("a"))
        injector.arm("wal.append.torn", "torn")
        with pytest.raises(InjectedCrash):
            wal.append(UpdateOp.insert_vertex("b"))
        # "Restart": the half-written record must be truncated away.
        recovered = WriteAheadLog(path)
        assert recovered.truncated_bytes > 0
        assert recovered.records() == [(1, UpdateOp.insert_vertex("a"))]
        recovered.close()

    def test_truncate_through_preserves_seq_monotonicity(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        for op in some_ops():
            wal.append(op)
        assert wal.truncate_through(3) == 2  # records 4 and 5 survive
        assert [s for s, _ in wal.records()] == [4, 5]
        wal.close()
        # Reopening must not reset the sequence counter.
        reopened = WriteAheadLog(path)
        assert reopened.last_seq == 5
        assert reopened.append(UpdateOp.insert_vertex("z")) == 6
        reopened.close()

    def test_truncate_through_everything(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        for op in some_ops():
            wal.append(op)
        wal.truncate_through(5)
        assert wal.records() == []
        wal.close()
        reopened = WriteAheadLog(path)
        assert reopened.last_seq == 5  # carried by the header's base seq
        reopened.close()

    def test_fsync_policies(self, tmp_path):
        for policy, expect_fsyncs in [("always", 2), ("batch", 1), ("never", 0)]:
            wal = WriteAheadLog(tmp_path / f"{policy}.log", fsync=policy)
            wal.append(UpdateOp.insert_vertex("a"))
            wal.append(UpdateOp.insert_vertex("b"))
            wal.sync()
            # "always" syncs per append (the batch-end sync finds nothing
            # new but still counts); "batch" once; "never" never.
            assert wal.fsyncs >= expect_fsyncs, policy
            if policy == "never":
                assert wal.fsyncs == 0
            wal.close()

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path / "wal.log", fsync="sometimes")

    def test_not_a_wal_rejected(self, tmp_path):
        path = tmp_path / "bogus.log"
        path.write_bytes(b"definitely not a WAL, much longer than a header")
        with pytest.raises(SerializationError):
            WriteAheadLog(path)

    def test_append_after_close_rejected(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.close()
        with pytest.raises(SerializationError):
            wal.append(UpdateOp.insert_vertex("a"))


class TestCheckpointStore:
    def graph(self):
        return DiGraph(edges=[("a", "b"), ("b", "c")])

    def test_write_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write(self.graph(), {"wal_seq": 7, "epoch": 3})
        graph, meta, path = store.load_latest()
        assert graph == self.graph()
        assert meta["wal_seq"] == 7 and meta["epoch"] == 3
        assert path.name == "ckpt-000000000007.tolf"

    def test_newest_wins(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=3)
        store.write(DiGraph(vertices=["old"]), {"wal_seq": 1})
        store.write(self.graph(), {"wal_seq": 9})
        graph, meta, _ = store.load_latest()
        assert meta["wal_seq"] == 9
        assert graph == self.graph()

    def test_corrupt_newest_falls_back_to_older(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=3)
        store.write(self.graph(), {"wal_seq": 1})
        newest = store.write(DiGraph(vertices=["new"]), {"wal_seq": 5})
        blob = bytearray(newest.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        newest.write_bytes(bytes(blob))
        graph, meta, path = store.load_latest()
        assert meta["wal_seq"] == 1
        assert graph == self.graph()
        assert path.name.endswith("000001.tolf")

    def test_all_corrupt_returns_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        p = store.write(self.graph(), {"wal_seq": 1})
        p.write_bytes(b"garbage")
        assert store.load_latest() is None

    def test_crash_before_rename_leaves_old_checkpoint_live(self, tmp_path):
        injector = FaultInjector()
        store = CheckpointStore(tmp_path, injector=injector, keep=3)
        store.write(self.graph(), {"wal_seq": 1})
        injector.arm("checkpoint.rename")
        with pytest.raises(InjectedCrash):
            store.write(DiGraph(vertices=["half"]), {"wal_seq": 5})
        # The temp file must not shadow the good checkpoint.
        fresh = CheckpointStore(tmp_path)
        _, meta, _ = fresh.load_latest()
        assert meta["wal_seq"] == 1
        # And the next successful write cleans the stray temp file.
        fresh.write(self.graph(), {"wal_seq": 6})
        assert not list(tmp_path.glob("*.tmp"))

    def test_prune_keeps_newest(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        for seq in (1, 2, 3, 4):
            store.write(self.graph(), {"wal_seq": seq})
        kept = [CheckpointStore.seq_of(p) for p in store.paths()]
        assert kept == [3, 4]


class TestDurabilityManager:
    def test_checkpoint_cadence_and_trim(self, tmp_path):
        mgr = DurabilityManager(tmp_path, checkpoint_every=3, fsync="never")
        graph = DiGraph()
        for i in range(5):
            op = UpdateOp.insert_vertex(i)
            mgr.wal.append(op)
            op.apply_to_graph(graph)
            if mgr.checkpoint_due:
                mgr.checkpoint(graph, {"wal_seq": mgr.wal.last_seq})
        # Threshold 3: one checkpoint at seq 3, suffix 4..5 still in WAL.
        assert mgr.checkpointed_seq == 3
        assert [s for s, _ in mgr.wal.records()] == [4, 5]
        assert len(mgr.checkpoints.paths()) == 1
        mgr.close()

    def test_reopen_reads_checkpoint_coverage(self, tmp_path):
        mgr = DurabilityManager(tmp_path, checkpoint_every=0, fsync="never")
        mgr.wal.append(UpdateOp.insert_vertex("a"))
        mgr.wal.sync()
        mgr.checkpoint(DiGraph(vertices=["a"]), {})
        mgr.close()
        again = DurabilityManager(tmp_path, fsync="never")
        assert again.checkpointed_seq == 1
        assert again.wal.last_seq == 1
        again.close()


class TestServiceCheckpointCadence:
    def test_checkpoint_due_writes_served_graph(
        self, tmp_path, monkeypatch
    ):
        graph = random_dag(30, 60, seed=4)
        mgr = DurabilityManager(tmp_path, checkpoint_every=4, fsync="never")
        service = ReachabilityService(graph.copy(), durability=mgr)
        copies = []
        original = DiGraph.copy

        def counting_copy(self):
            copies.append(self)
            return original(self)

        monkeypatch.setattr(DiGraph, "copy", counting_copy)
        ops = [UpdateOp.insert_vertex(f"n{i}", in_neighbors=[i])
               for i in range(4)]
        for op in ops[:3]:
            service.apply(op)  # one batch per op
        assert mgr.checkpointed_seq == 0

        service.apply(ops[3])  # crosses the threshold
        assert mgr.checkpointed_seq == 4
        # The checkpoint serializes the served graph itself.
        assert copies == []
        # The trim stops at the retained baseline checkpoint (seq 0), so
        # falling back to it would still find every update in the WAL.
        assert [s for s, _ in mgr.wal.records()] == [1, 2, 3, 4]
        monkeypatch.undo()
        mgr.close()

        for op in ops:
            op.apply_to_graph(graph)
        recovered = ReachabilityService.recover(tmp_path, fsync="never")
        try:
            report = recovered.last_recovery
            assert report.checkpoint_seq == 4
            assert report.replayed == 0
            assert report.graph == graph
            vertices = sorted(graph.vertices(), key=str)
            for s in vertices:
                for t in vertices:
                    assert recovered.query(s, t) == bidirectional_reachable(
                        graph, s, t
                    ), (s, t)
        finally:
            recovered.durability.close()


class TestRecoverState:
    def test_empty_directory_recovers_empty_graph(self, tmp_path):
        report = recover_state(tmp_path)
        assert report.graph.num_vertices == 0
        assert report.replayed == 0
        assert report.checkpoint_path is None

    def test_checkpoint_plus_wal_suffix(self, tmp_path):
        mgr = DurabilityManager(tmp_path, checkpoint_every=0, fsync="never")
        graph = DiGraph()
        ops = [
            UpdateOp.insert_vertex("a"),
            UpdateOp.insert_vertex("b", in_neighbors=["a"]),
        ]
        for op in ops:
            mgr.wal.append(op)
            op.apply_to_graph(graph)
        mgr.checkpoint(graph, {})
        # Two more ops after the checkpoint: the replayed suffix.
        for op in [UpdateOp.insert_edge("b", "a"), UpdateOp.insert_vertex("c")]:
            mgr.wal.append(op)
        mgr.close()

        report = recover_state(tmp_path)
        assert report.checkpoint_seq == 2
        assert report.replayed == 2
        expected = DiGraph(edges=[("a", "b"), ("b", "a")], vertices=["c"])
        assert report.graph == expected
        assert report.last_seq == 4

    def test_invalid_replay_records_are_skipped(self, tmp_path):
        mgr = DurabilityManager(tmp_path, fsync="never")
        mgr.wal.append(UpdateOp.insert_vertex("a"))
        mgr.wal.append(UpdateOp.delete_vertex("ghost"))  # never applied live
        mgr.wal.append(UpdateOp.insert_vertex("b"))
        mgr.close()
        report = recover_state(tmp_path)
        assert report.replayed == 2
        assert report.skipped == 1
        assert sorted(report.graph.vertices()) == ["a", "b"]

    def test_recovery_is_idempotent(self, tmp_path):
        mgr = DurabilityManager(tmp_path, fsync="never")
        for op in some_ops():
            mgr.wal.append(op)
        mgr.close()
        first = recover_state(tmp_path)
        second = recover_state(tmp_path)
        assert first.graph == second.graph
        assert first.last_seq == second.last_seq


class TestCheckpointFallback:
    """Falling back past a bad checkpoint must never lose acked updates."""

    def seven_ops(self, tmp_path):
        mgr = DurabilityManager(tmp_path, checkpoint_every=3, fsync="never")
        graph = DiGraph()
        for i in range(7):
            op = UpdateOp.insert_vertex(i)
            mgr.wal.append(op)
            op.apply_to_graph(graph)
            if mgr.checkpoint_due:
                mgr.checkpoint(graph.copy(), {"wal_seq": mgr.wal.last_seq})
        mgr.close()
        return mgr.checkpoints.paths()

    @staticmethod
    def flip_a_byte(path):
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))

    def test_corrupt_newest_checkpoint_still_recovers_everything(
        self, tmp_path
    ):
        paths = self.seven_ops(tmp_path)
        assert [CheckpointStore.seq_of(p) for p in paths] == [3, 6]
        self.flip_a_byte(paths[-1])
        report = recover_state(tmp_path)
        assert report.checkpoint_seq == 3
        assert sorted(report.graph.vertices()) == list(range(7))

    def test_gap_between_checkpoint_and_wal_raises(self, tmp_path):
        for path in self.seven_ops(tmp_path):
            self.flip_a_byte(path)
        # No loadable checkpoint counts as seq 0, but the WAL was trimmed
        # through seq 3: replaying from an empty graph would drop 0..2.
        with pytest.raises(SerializationError, match="gap"):
            recover_state(tmp_path)

    def test_legacy_tolc_checkpoint_refuses_to_recover(self, tmp_path):
        legacy = tmp_path / "checkpoints" / "ckpt-000000000005.tolc"
        legacy.parent.mkdir()
        # A TOLC header: magic, u16 version 1, u32 length, u32 crc32.
        legacy.write_bytes(b"TOLC" + (1).to_bytes(2, "little") + bytes(8))
        with pytest.raises(SerializationError, match=legacy.name):
            recover_state(tmp_path)

    def test_unsupported_pack_version_refuses_to_recover(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.write(DiGraph(vertices=["a"]), {"wal_seq": 1})
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # the u16 version after the magic
        path.write_bytes(bytes(blob))
        with pytest.raises(SerializationError, match=path.name):
            store.load_latest()

    def test_crc_flipped_pack_is_skipped(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=3)
        store.write(DiGraph(vertices=["old"]), {"wal_seq": 1})
        newest = store.write(DiGraph(vertices=["new"]), {"wal_seq": 2})
        self.flip_a_byte(newest)
        graph, meta, _ = store.load_latest()
        assert meta["wal_seq"] == 1 and list(graph.vertices()) == ["old"]


class TestCheckpointLayout:
    """Checkpoints are graph-only TOLF packs whose layout has not changed
    since checkpoints became packs (label packs changed theirs), so every
    durability directory written since then still recovers."""

    @staticmethod
    def graph_only_pack(graph, meta):
        """The checkpoint layout, section by section: ``vertices`` (i64
        for plain ints, a JSON list in meta otherwise) and ``edges`` as
        i32 position pairs."""
        from array import array

        vertices = list(graph.vertices())
        position = {v: i for i, v in enumerate(vertices)}
        sections = {}
        doc = dict(meta)
        if all(type(v) is int for v in vertices):
            sections["vertices"] = array("q", vertices)
        else:
            doc["vertices"] = vertices
        sections["edges"] = array(
            "i", [position[x] for edge in graph.edges() for x in edge]
        )
        return encode_pack(sections, doc)

    @pytest.mark.parametrize("names", [int, str], ids=["int", "str"])
    def test_checkpoint_plus_wal_suffix_recovers(self, tmp_path, names):
        graph = DiGraph()
        for tail, head in random_dag(25, 60, seed=4).edges():
            graph.add_edge(names(tail), names(head))
        mgr = DurabilityManager(tmp_path, checkpoint_every=0, fsync="never")
        for i in range(3):  # covered by the checkpoint below
            mgr.wal.append(UpdateOp.insert_vertex(names(100 + i)))
            graph.add_vertex(names(100 + i))
        meta = {"wal_seq": 3, "epoch": 3}
        blob = self.graph_only_pack(graph, meta)
        assert blob == pack_graph(graph, meta)  # writers keep this layout
        (mgr.checkpoints.directory / "ckpt-000000000003.tolf").write_bytes(blob)
        suffix = [
            UpdateOp.insert_edge(names(100), names(101)),
            UpdateOp.insert_vertex(names(103), in_neighbors=[names(101)]),
        ]
        for op in suffix:
            mgr.wal.append(op)
            op.apply_to_graph(graph)
        mgr.close()

        recovered = ReachabilityService.recover(tmp_path, fsync="never")
        try:
            assert recovered.last_recovery.checkpoint_seq == 3
            assert recovered.last_recovery.replayed == 2
            assert recovered.last_recovery.graph == graph
            vertices = list(graph.vertices())
            pairs = [(s, t) for s in vertices for t in vertices]
            assert recovered.query_batch(pairs) == [
                bidirectional_reachable(graph, s, t) for s, t in pairs
            ]
        finally:
            recovered.durability.close()


class TestWalOsFailures:
    def test_injected_ioerror_on_sync(self, tmp_path):
        injector = FaultInjector()
        wal = WriteAheadLog(tmp_path / "wal.log", injector=injector)
        wal.append(UpdateOp.insert_vertex("a"))
        injector.arm("wal.sync", "ioerror")
        with pytest.raises(OSError):
            wal.sync()
        # The record itself is intact.
        assert len(wal.records()) == 1
        wal.close()

    def test_directory_created_on_demand(self, tmp_path):
        nested = tmp_path / "deep" / "state"
        wal = WriteAheadLog(nested / "wal.log")
        wal.append(UpdateOp.insert_vertex("a"))
        wal.close()
        assert os.path.exists(nested / "wal.log")
