"""Unit tests for the flight recorder: ring, sampler, dump formats."""

import json

import pytest

from repro.obs.flight import FlightRecorder
from repro.obs.registry import MetricRegistry


def make_recorder(tmp_path=None, **kwargs):
    registry = MetricRegistry()
    registry.incr("test.counter", 3)
    return FlightRecorder(
        registry,
        dump_dir=None if tmp_path is None else tmp_path / "flights",
        **kwargs,
    )


class TestRing:
    def test_tick_captures_registry_state(self):
        fr = make_recorder()
        entry = fr.tick()
        assert entry["kind"] == "snapshot"
        assert entry["metrics"]["counters"]["test.counter"] == 3
        assert fr.ticks == 1
        assert fr.snapshots() == [entry]

    def test_capacity_bounds_the_ring_oldest_first_out(self):
        fr = make_recorder(capacity=4)
        for i in range(10):
            fr.registry.incr("tick.seq")
            fr.tick()
        ring = fr.snapshots()
        assert len(ring) == 4
        seqs = [e["metrics"]["counters"]["tick.seq"] for e in ring]
        assert seqs == [7, 8, 9, 10]  # oldest evicted, order preserved
        assert fr.ticks == 10  # the counter keeps the true total

    def test_markers_interleave_with_snapshots(self):
        fr = make_recorder()
        fr.tick()
        fr.note("degraded", kind="insert_edge", trace="aa")
        fr.tick()
        kinds = [e["kind"] for e in fr.snapshots()]
        assert kinds == ["snapshot", "marker", "snapshot"]
        marker = fr.snapshots()[1]
        assert marker["event"] == "degraded"
        assert marker["attrs"] == {"kind": "insert_edge", "trace": "aa"}

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_recorder(capacity=0)
        with pytest.raises(ValueError):
            make_recorder(interval=0.0)


class TestSampler:
    def test_background_thread_ticks(self):
        fr = make_recorder(interval=0.01)
        with fr:
            deadline = 200
            while fr.ticks == 0 and deadline:
                deadline -= 1
                fr._stop.wait(0.01)
        assert fr.ticks > 0
        assert fr._thread is None  # stopped on exit

    def test_start_is_idempotent(self):
        fr = make_recorder(interval=60.0)
        fr.start()
        first = fr._thread
        fr.start()
        assert fr._thread is first
        fr.stop()

    def test_ring_readable_after_stop(self):
        fr = make_recorder()
        fr.tick()
        fr.stop()  # never started: harmless
        assert len(fr.snapshots()) == 1


class TestDump:
    def _read_jsonl(self, path):
        with open(path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh]

    def test_dump_header_then_entries_oldest_first(self, tmp_path):
        fr = make_recorder()
        fr.tick()
        fr.note("degraded", reason="audit_failure")
        out = fr.dump(tmp_path / "d" / "timeline.jsonl", "degraded")
        lines = self._read_jsonl(out)
        header = lines[0]
        assert header["kind"] == "dump"
        assert header["reason"] == "degraded"
        # dump() takes one extra snapshot for the dump moment itself.
        assert header["entries"] == 3
        assert [e["kind"] for e in lines[1:]] == [
            "snapshot", "marker", "snapshot"
        ]
        assert fr.dumps == 1

    def test_auto_dump_names_and_counts_files(self, tmp_path):
        fr = make_recorder(tmp_path)
        first = fr.auto_dump("degraded", reason="operator")
        second = fr.auto_dump("tol.audit", mismatch=1)
        assert first.name == "flight-degraded-0001.jsonl"
        assert second.name == "flight-tol-audit-0002.jsonl"  # dots sanitized
        # The trigger marker lands in the ring before the dump snapshot.
        events = [e for e in self._read_jsonl(first)[1:] if e["kind"] == "marker"]
        assert events[0]["event"] == "degraded"
        assert events[0]["attrs"] == {"reason": "operator"}

    def test_auto_dump_without_dir_records_marker_only(self):
        fr = make_recorder()
        assert fr.auto_dump("degraded") is None
        assert [e["kind"] for e in fr.snapshots()] == ["marker"]
        assert fr.dumps == 0

    def test_auto_dump_swallows_os_errors(self, tmp_path):
        blocker = tmp_path / "flights"
        blocker.write_text("not a directory")
        fr = FlightRecorder(MetricRegistry(), dump_dir=blocker)
        assert fr.auto_dump("degraded") is None  # must not raise

    def test_ring_depth_and_dump_count(self, tmp_path):
        fr = make_recorder(tmp_path, capacity=8, interval=2.0)
        fr.tick()
        fr.auto_dump("sigquit")
        assert (fr.capacity, fr.interval) == (8, 2.0)
        assert len(fr.snapshots()) == 3  # tick + marker + dump snapshot
        assert fr.dumps == 1
        assert fr._thread is None  # never started
