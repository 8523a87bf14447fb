"""Trace ids and the flight recorder through the service write path.

``test_faults.py`` pins the kernel-failure mechanics; here we pin the
observability riding on them: a batch's trace id follows its ops into
the WAL and onto a kernel failure's ``service.degraded_enter`` event,
and the flight recorder is dumped exactly on the events that need a
post-mortem (degraded-mode entry, recovery).
"""

import io
import json

from repro.graph.digraph import DiGraph
from repro.obs import trace as obs_trace
from repro.obs.flight import FlightRecorder
from repro.obs.registry import MetricRegistry
from repro.obs.trace import JsonlSink
from repro.service.durability import DurabilityManager
from repro.service.faults import FaultInjector
from repro.service.server import ReachabilityService
from repro.core.ops import UpdateOp


def diamond() -> DiGraph:
    return DiGraph(edges=[("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


class TestTraceToWal:
    def test_apply_batch_stamps_every_record(self, tmp_path):
        durability = DurabilityManager(tmp_path, fsync="never")
        service = ReachabilityService(diamond(), durability=durability)
        ops = [
            UpdateOp.insert_vertex("e", in_neighbors=["d"]),
            UpdateOp.insert_edge("a", "e"),
        ]
        service.apply_batch(ops, trace_id="0123456789abcdef")
        traces = [
            t for _, op, t in durability.wal.records_with_traces()
            if op.kind in ("insert_vertex", "insert_edge")
        ]
        assert traces == ["0123456789abcdef"] * 2

    def test_traces_are_per_batch_not_sticky(self, tmp_path):
        durability = DurabilityManager(tmp_path, fsync="never")
        service = ReachabilityService(diamond(), durability=durability)
        service.apply(UpdateOp.insert_vertex("e"), trace_id="aaaa0000aaaa0000")
        service.apply(UpdateOp.insert_vertex("f"))  # untraced
        by_vertex = {
            op.vertex: t
            for _, op, t in durability.wal.records_with_traces()
            if op.kind == "insert_vertex"
        }
        assert by_vertex["e"] == "aaaa0000aaaa0000"
        assert by_vertex["f"] is None


class TestKernelFailureTraces:
    def _poisoned(self, **kwargs):
        injector = FaultInjector()
        service = ReachabilityService(diamond(), injector=injector, **kwargs)
        injector.arm("service.apply", "ioerror")  # the next kernel fails
        return service

    def _events(self, service, **apply_kwargs):
        buf = io.StringIO()
        obs_trace.enable(sink=JsonlSink(buf))
        try:
            service.apply(UpdateOp.insert_vertex("e"), **apply_kwargs)
        finally:
            obs_trace.disable()
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        return [r for r in records if r["name"] == "service.degraded_enter"]

    def test_kernel_failure_event_keeps_its_trace(self):
        service = self._poisoned()
        [event] = self._events(service, trace_id="beefbeefbeef0001")
        assert event["attrs"]["reason"] == "kernel_failure"
        assert event["attrs"]["trace"] == "beefbeefbeef0001"
        assert event["attrs"]["kind"] == "insert_vertex"
        assert "OSError" in event["attrs"]["error"]
        assert "e" in service and not service.degraded

    def test_untraced_kernel_failure_has_no_tag(self):
        service = self._poisoned()
        [event] = self._events(service)
        assert event["attrs"]["reason"] == "kernel_failure"
        assert event["attrs"]["trace"] is None

    def test_kernel_failure_dumps_the_flight_recorder(self, tmp_path):
        registry = MetricRegistry()
        flight = FlightRecorder(registry, dump_dir=tmp_path / "flights")
        service = self._poisoned(registry=registry, flight=flight)
        service.apply(
            UpdateOp.insert_vertex("e"), trace_id="beefbeefbeef0002"
        )
        dumps = sorted((tmp_path / "flights").glob("flight-degraded-*"))
        assert len(dumps) == 1
        markers = [
            e for e in flight.snapshots() if e["kind"] == "marker"
        ]
        assert markers[0]["event"] == "degraded"
        assert markers[0]["attrs"]["reason"] == "kernel_failure"
        assert markers[0]["attrs"]["trace"] == "beefbeefbeef0002"


class TestDegradedFlightDump:
    def test_operator_entry_dumps_once_per_edge(self, tmp_path):
        registry = MetricRegistry()
        flight = FlightRecorder(registry, dump_dir=tmp_path / "flights")
        service = ReachabilityService(
            diamond(), registry=registry, flight=flight
        )
        service.enter_degraded()
        service.enter_degraded()  # already degraded: no second dump
        service.exit_degraded()
        service.enter_degraded()  # a fresh edge dumps again
        dumps = sorted((tmp_path / "flights").glob("flight-degraded-*"))
        assert len(dumps) == 2
        reasons = [
            e["attrs"]["reason"] for e in flight.snapshots()
            if e["kind"] == "marker"
        ]
        assert reasons == ["operator", "operator"]

    def test_no_flight_wired_is_fine(self):
        service = ReachabilityService(diamond())
        service.enter_degraded()  # must not raise without a recorder
        assert service.degraded
        service.exit_degraded()

    def test_recovery_dumps_a_timeline(self, tmp_path):
        durability = DurabilityManager(tmp_path / "state", fsync="never")
        service = ReachabilityService(diamond(), durability=durability)
        service.apply(UpdateOp.insert_vertex("e"))
        durability.close()

        registry = MetricRegistry()
        flight = FlightRecorder(registry, dump_dir=tmp_path / "flights")
        recovered = ReachabilityService.recover(
            tmp_path / "state", registry=registry, flight=flight
        )
        assert "e" in recovered._index
        dumps = sorted((tmp_path / "flights").glob("flight-recovery-*"))
        assert len(dumps) == 1
