"""Protocol-v2 integration tests: trace ids, timings, health, slowlog.

Same harness as ``test_server.py`` — a real :class:`BackgroundServer` on
a daemon thread, real sockets — but focused on the observability
envelope: trace propagation and minting, the opt-in stage breakdown, the
``health`` and ``stats registry`` ops, v1 backward compatibility, and
the slow-query log fed from the dispatch path.
"""

import re

import pytest

from repro.errors import OverloadedError
from repro.graph.generators import random_dag
from repro.net.client import ReachabilityClient
from repro.net.protocol import (
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    recv_frame_file,
    send_frame_sync,
)
from repro.net.server import BackgroundServer
from repro.obs.slowlog import SlowQueryLog, read_slowlog
from repro.service.durability import DurabilityManager
from repro.service.server import ReachabilityService
from repro.core.ops import UpdateOp

TRACE_RE = re.compile(r"^[0-9a-f]{16}$")


@pytest.fixture(scope="module")
def dag():
    return random_dag(60, 150, seed=11)


@pytest.fixture()
def service(dag):
    return ReachabilityService(dag.copy(), cache_size=256)


@pytest.fixture()
def running(service):
    with BackgroundServer(service) as bs:
        yield bs


class TestTracePropagation:
    def test_client_supplied_trace_is_echoed(self, running):
        with ReachabilityClient(running.host, running.port) as client:
            reply = client.query_many([(0, 1)], trace="feedbeefcafe0001")
        assert reply.trace == "feedbeefcafe0001"

    def test_untraced_request_gets_a_minted_trace(self, running):
        with ReachabilityClient(running.host, running.port) as client:
            reply = client.query_many([(0, 1)])
        # The client mints when the caller doesn't supply one.
        assert TRACE_RE.match(reply.trace)

    def test_server_mints_for_v1_style_peers(self, running):
        with ReachabilityClient(running.host, running.port) as client:
            client._next_id += 1
            send_frame_sync(
                client._sock,
                {"v": 1, "id": client._next_id, "op": "query",
                 "pairs": [[0, 1]]},
            )
            response = recv_frame_file(client._rfile)
        assert response["ok"] is True
        assert TRACE_RE.match(response["trace"])

    def test_distinct_requests_get_distinct_traces(self, running):
        with ReachabilityClient(running.host, running.port) as client:
            first = client.query_many([(0, 1)])
            second = client.query_many([(0, 1)])
        assert first.trace != second.trace


class TestTimings:
    def test_opt_in_breakdown_has_every_stage(self, dag, running):
        with ReachabilityClient(running.host, running.port) as client:
            reply = client.query_many([(0, 40), (5, 12)], timings=True)
        stages = reply.timings
        assert stages is not None
        for key in ("lock_ms", "probe_ms", "total_ms"):
            assert stages[key] >= 0.0, key
        assert stages["cache_hits"] + stages["cache_misses"] == 2
        assert stages["degraded"] is False
        assert stages["total_ms"] >= stages["probe_ms"]

    def test_no_breakdown_unless_requested(self, running):
        with ReachabilityClient(running.host, running.port) as client:
            reply = client.query_many([(0, 1)])
        assert reply.timings is None

    def test_results_identical_with_and_without_timings(self, running):
        pairs = [(0, 40), (40, 0), (3, 3), (12, 50)]
        with ReachabilityClient(running.host, running.port) as client:
            plain = client.query_many(pairs)
            timed = client.query_many(pairs, timings=True)
        assert timed.results == plain.results

    def test_degraded_mode_flagged_in_breakdown(self, service, running):
        service.enter_degraded()
        try:
            with ReachabilityClient(running.host, running.port) as client:
                reply = client.query_many([(0, 1)], timings=True)
        finally:
            service.exit_degraded()
        assert reply.timings["degraded"] is True


class TestIntrospectionOps:
    def test_health_op_round_trip(self, running):
        with ReachabilityClient(running.host, running.port) as client:
            client.query(0, 1)  # warm one query through the stack
            payload = client.health()
        assert payload["epoch"] == 0
        assert payload["index"]["num_vertices"] == 60
        assert payload["index"]["labels"]["in"]["max"] >= 1
        assert len(payload["index"]["order"]["decile_coverage"]) == 10
        assert payload["wal"] is None

    def test_both_supported_versions_accepted(self, running):
        assert PROTOCOL_VERSION == SUPPORTED_VERSIONS[-1]
        with ReachabilityClient(running.host, running.port) as client:
            for version in SUPPORTED_VERSIONS:
                client._next_id += 1
                send_frame_sync(
                    client._sock,
                    {"v": version, "id": client._next_id, "op": "ping"},
                )
                response = recv_frame_file(client._rfile)
                assert response["ok"] is True, version


class TestUpdateTraces:
    def test_update_trace_lands_in_the_wal(self, dag, tmp_path):
        durability = DurabilityManager(tmp_path, fsync="never")
        service = ReachabilityService(dag.copy(), durability=durability)
        with BackgroundServer(service) as bs:
            with ReachabilityClient(bs.host, bs.port) as client:
                applied = client.apply(
                    UpdateOp.insert_vertex("traced-vertex"),
                    trace="cafecafecafe0042",
                )
        assert applied == 1
        triples = durability.wal.records_with_traces()
        traced = [t for _, op, t in triples
                  if op.kind == "insert_vertex" and t is not None]
        assert "cafecafecafe0042" in traced

    def test_untraced_local_writes_stay_untraced(self, dag, tmp_path):
        durability = DurabilityManager(tmp_path, fsync="never")
        service = ReachabilityService(dag.copy(), durability=durability)
        service.apply(UpdateOp.insert_vertex("local"))
        [(_, _, trace)] = [
            r for r in durability.wal.records_with_traces()
            if r[1].kind == "insert_vertex"
        ]
        assert trace is None


class TestSlowlogIntegration:
    def test_every_request_logged_at_threshold_zero(self, dag, tmp_path):
        log = SlowQueryLog(tmp_path / "slow.jsonl", threshold_ms=0.0)
        service = ReachabilityService(dag.copy(), cache_size=256)
        with BackgroundServer(service, slowlog=log) as bs:
            with ReachabilityClient(bs.host, bs.port) as client:
                client.query_many([(0, 40), (5, 12)],
                                  trace="abadcafe00000001")
        log.close()
        records = read_slowlog(tmp_path / "slow.jsonl")
        [rec] = [r for r in records if r["trace"] == "abadcafe00000001"]
        assert rec["outcome"] == "ok"
        assert rec["pairs"] == 2
        # The slowlog always gets the stage breakdown, even though the
        # client did not opt into timings on the wire.
        assert rec["stages"]["probe_ms"] >= 0.0
        assert rec["stages"]["lock_ms"] >= 0.0
        assert rec["epoch"] == 0

    def test_shed_requests_logged_with_outcome(self, dag, tmp_path):
        log = SlowQueryLog(tmp_path / "slow.jsonl", threshold_ms=0.0)
        service = ReachabilityService(dag.copy())
        # A one-connection budget: while one client holds it, the
        # next connection is shed.
        with BackgroundServer(service, slowlog=log, max_connections=1) as bs:
            with ReachabilityClient(bs.host, bs.port) as holder:
                holder.ping()
                with ReachabilityClient(bs.host, bs.port) as client:
                    with pytest.raises(OverloadedError):
                        client.query_many([(0, 1), (1, 2)],
                                          trace="dead0000beef0000")
        log.close()
        [rec] = [r for r in read_slowlog(tmp_path / "slow.jsonl")
                 if r["trace"] == "dead0000beef0000"]
        assert rec["outcome"] == "shed"

    def test_single_pair_recorded_for_grepping(self, dag, tmp_path):
        log = SlowQueryLog(tmp_path / "slow.jsonl", threshold_ms=0.0)
        service = ReachabilityService(dag.copy())
        with BackgroundServer(service, slowlog=log) as bs:
            with ReachabilityClient(bs.host, bs.port) as client:
                client.query(7, 33)
        log.close()
        [rec] = read_slowlog(tmp_path / "slow.jsonl")
        assert rec["pair"] == [7, 33]
