"""Integration tests for the serving loop.

Every test runs a real server (:class:`BackgroundServer` on a daemon
thread) and talks to it over real sockets with the blocking client —
the same path production traffic takes, minus the network.  The
wire-contract cases (:class:`WireContract`) also run against a
``repro serve --workers 1`` assembly, whose reader worker answers
through the same dispatcher.
"""

import socket
import struct
import threading
import time

import pytest

from repro.errors import (
    OverloadedError,
    ProtocolError,
    UnknownVertexError,
)
from repro.graph.generators import random_dag
from repro.graph.traversal import bidirectional_reachable
from repro.net.client import ReachabilityClient
from repro.net.loadgen import spawned_server
from repro.net.protocol import recv_frame_file, send_frame_sync
from repro.net.server import BackgroundServer
from repro.service.server import ReachabilityService
from repro.core.ops import UpdateOp


@pytest.fixture(scope="module")
def dag():
    return random_dag(80, 200, seed=7)


@pytest.fixture()
def service(dag):
    return ReachabilityService(dag.copy(), cache_size=4096)


@pytest.fixture()
def running(service):
    with BackgroundServer(service) as bs:
        yield bs


def oracle(graph, pairs):
    return [bidirectional_reachable(graph, s, t) for s, t in pairs]


#: Connection budget of the servers the wire-contract cases run against.
BUDGET = 2


def shed_count(client):
    """``net.shed`` of whichever process shed: the server itself, or the
    reader workers (reported through their control-block slots)."""
    stats = client._call({"op": "stats"})
    return stats["registry"]["counters"]["net.shed"] + sum(
        w["shed"] for w in stats.get("workers", [])
    )


class TestQueries:
    def test_single_query_matches_oracle(self, dag, running):
        with ReachabilityClient(running.host, running.port) as client:
            for s, t in [(0, 1), (5, 40), (79, 0)]:
                assert client.query(s, t) == bidirectional_reachable(
                    dag, s, t
                )

    def test_batch_matches_oracle_in_order_with_duplicates(
        self, dag, running
    ):
        pairs = [(0, 40), (40, 0), (0, 40), (3, 3), (12, 60)]
        with ReachabilityClient(running.host, running.port) as client:
            reply = client.query_many(pairs)
        assert reply.results == oracle(dag, pairs)
        assert reply.epoch == 0
        assert reply.degraded is False

    def test_empty_batch(self, running):
        with ReachabilityClient(running.host, running.port) as client:
            assert client.query_many([]).results == []

    def test_degraded_mode_is_surfaced_in_the_envelope(
        self, dag, service, running
    ):
        service.enter_degraded()
        try:
            with ReachabilityClient(running.host, running.port) as client:
                reply = client.query_many([(0, 40)])
            assert reply.degraded is True
            assert reply.results == oracle(dag, [(0, 40)])
        finally:
            service.exit_degraded()

    def test_ping_and_stats(self, running):
        with ReachabilityClient(running.host, running.port) as client:
            pong = client.ping()
            assert pong["pong"] is True and pong["epoch"] == 0
            client.query(0, 1)
            stats = client.stats()
            assert stats["counters"]["service.queries"] >= 1
            assert stats["gauges"]["service.epoch"] == 0
            assert stats["counters"]["net.requests"] >= 3
            assert stats["counters"]["net.queries"] >= 1


class TestUpdates:
    def test_update_applies_and_bumps_epoch(self, dag, service, running):
        # Pick a pair with no edge and no path, then connect it.
        tail, head = None, None
        for s in dag.vertices():
            for t in dag.vertices():
                if s != t and not bidirectional_reachable(dag, s, t) \
                        and not bidirectional_reachable(dag, t, s):
                    tail, head = s, t
                    break
            if tail is not None:
                break
        assert tail is not None
        with ReachabilityClient(running.host, running.port) as client:
            assert client.query(tail, head) is False
            assert client.insert_edge(tail, head) == 1
            reply = client.query_many([(tail, head)])
            assert reply.results == [True]
            assert reply.epoch == 1

    def test_update_with_unknown_vertex_is_a_structured_error(
        self, running
    ):
        with ReachabilityClient(running.host, running.port) as client:
            with pytest.raises(UnknownVertexError) as info:
                client.apply_batch([UpdateOp.insert_edge(0, "never-seen")])
            assert info.value.vertex == "never-seen"
            # The connection is still usable afterwards.
            assert client.ping()["pong"] is True

    def test_malformed_update_op_is_bad_request(self, running):
        with ReachabilityClient(running.host, running.port) as client:
            with pytest.raises(ProtocolError):
                client._call({"op": "update", "ops": [{"kind": "wat"}]})
            assert client.ping()["pong"] is True


class WireContract:
    """Protocol cases every serving role answers through one dispatcher.

    Subclasses provide an ``endpoint`` fixture: ``(host, port)`` of a
    server with a connection budget of :data:`BUDGET`.
    """

    def test_unknown_vertex_query_keeps_the_connection(self, endpoint):
        with ReachabilityClient(*endpoint) as client:
            with pytest.raises(UnknownVertexError):
                client.query(123456, 0)
            assert client.ping()["pong"] is True

    def test_unknown_op(self, endpoint):
        with ReachabilityClient(*endpoint) as client:
            with pytest.raises(ProtocolError, match="unknown_op"):
                client._call({"op": "frobnicate"})

    def test_unsupported_version(self, endpoint):
        with ReachabilityClient(*endpoint) as client:
            client._next_id += 1
            send_frame_sync(
                client._sock,
                {"v": 99, "id": client._next_id, "op": "ping"},
            )
            response = recv_frame_file(client._rfile)
            assert response["ok"] is False
            assert response["error"]["code"] == "unsupported_version"

    def test_bad_pairs_shape(self, endpoint):
        with ReachabilityClient(*endpoint) as client:
            with pytest.raises(ProtocolError):
                client._call({"op": "query", "pairs": [[1, 2, 3]]})

    def _bad_request_then_close(self, endpoint, frame):
        sock = socket.create_connection(endpoint, timeout=10)
        rfile = sock.makefile("rb")
        try:
            sock.sendall(frame)
            response = recv_frame_file(rfile)
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            # Server closes after a framing error (resync is impossible).
            assert recv_frame_file(rfile) is None
        finally:
            sock.close()

    def test_garbage_bytes_get_an_error_then_close(self, endpoint):
        # A length prefix far beyond MAX_FRAME_BYTES.
        self._bad_request_then_close(endpoint, struct.pack("!I", 0xFFFFFFFF))

    def test_non_json_body_is_bad_request_then_close(self, endpoint):
        self._bad_request_then_close(
            endpoint, struct.pack("!I", 5) + b"nope!"
        )

    def test_ping(self, endpoint):
        with ReachabilityClient(*endpoint) as client:
            pong = client.ping()
        assert pong["pong"] is True
        assert pong["epoch"] == 0
        assert pong["degraded"] is False

    def test_empty_batch_still_carries_a_trace(self, endpoint):
        with ReachabilityClient(*endpoint) as client:
            reply = client.query_many([], trace="00ff00ff00ff00ff")
        assert reply.trace == "00ff00ff00ff00ff"
        assert reply.results == []

    def test_over_budget_connection_is_shed_then_closed(self, endpoint):
        held = []
        try:
            # Fill the budget.  A connection an earlier test closed may
            # still hold its slot for a moment, so retry until admitted.
            deadline = time.monotonic() + 10.0
            while len(held) < BUDGET:
                client = ReachabilityClient(*endpoint)
                try:
                    client.ping()
                except OverloadedError:
                    client.close()
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
                    continue
                held.append(client)
            before = shed_count(held[0])

            sock = socket.create_connection(endpoint, timeout=10)
            rfile = sock.makefile("rb")
            try:
                send_frame_sync(sock, {"v": 2, "id": 1, "op": "query",
                                       "pairs": [[0, 1]], "trace": "5eed"})
                response = recv_frame_file(rfile)
                assert response["ok"] is False
                assert response["error"]["code"] == "overloaded"
                assert response["error"]["retry_after_ms"] > 0
                assert response["trace"] == "5eed"
                assert recv_frame_file(rfile) is None  # then closed
            finally:
                sock.close()

            assert shed_count(held[0]) == before + 1
            # Admitted connections keep being served.
            assert all(c.ping()["pong"] for c in held)
        finally:
            for client in held:
                client.close()

    def test_stats_replies_with_the_registry(self, endpoint):
        with ReachabilityClient(*endpoint) as client:
            client.query(0, 1)
            registry = client.stats()
        assert sorted(registry) == ["counters", "gauges", "histograms",
                                    "stats"]
        assert registry["counters"]["net.requests"] >= 1
        assert "service.queries" in registry["counters"]
        assert "net.request_latency" in registry["histograms"]

    def test_update_that_changes_nothing_reports_zero_applied(
        self, endpoint
    ):
        with ReachabilityClient(*endpoint) as client:
            epoch = client.ping()["epoch"]
            # Vertex 0 exists: the op passes validation, and the index
            # rejects it at apply time, so nothing is applied.
            assert client.apply(UpdateOp.insert_vertex(0)) == 0
            assert client.ping()["epoch"] == epoch
            counters = client.stats()["counters"]
        # No earlier case of the contract applies an update.
        assert counters["net.updates_applied"] == 0

    def test_update_request_is_all_or_nothing(self, endpoint):
        # Defined last: it moves the epoch of a class-scoped server.
        with ReachabilityClient(*endpoint) as client:
            with pytest.raises(UnknownVertexError) as info:
                client.apply_batch([
                    UpdateOp.insert_vertex("new", in_neighbors=[0]),
                    UpdateOp.delete_vertex("ghost"),
                ])
            assert info.value.vertex == "ghost"
            assert client.apply(UpdateOp.insert_vertex("after")) == 1
            # Reader workers see the update once the writer republishes.
            deadline = time.monotonic() + 10.0
            while True:
                try:
                    assert client.query("after", "after") is True
                    break
                except UnknownVertexError:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
            with pytest.raises(UnknownVertexError):
                client.query("new", "new")


class TestProtocolErrors(WireContract):
    """The wire contract against the in-process service-backed server."""

    @pytest.fixture()
    def endpoint(self, dag):
        service = ReachabilityService(dag.copy(), cache_size=4096)
        with BackgroundServer(service, max_connections=BUDGET) as bs:
            yield bs.host, bs.port


@pytest.mark.slow
class TestProtocolErrorsOverWorkers(WireContract):
    """The same contract against a reader worker of ``repro serve``."""

    @pytest.fixture(scope="class")
    def endpoint(self, graph_file):
        args = ["--workers", "1", "--max-connections", str(BUDGET)]
        with spawned_server(graph_file, server_args=args) as server:
            yield server.host, server.port
            assert server.terminate() == 0

    def test_stats_reply_keeps_the_multiprocess_fields(self, endpoint):
        with ReachabilityClient(*endpoint) as client:
            reply = client._call({"op": "stats"})
        assert reply["registry"]["counters"]["net.requests"] >= 1
        assert [w["pid"] for w in reply["workers"]]
        assert reply["writer_pid"] > 0
        assert "worker_restarts" in reply and "writer_restarts" in reply


class TestEpochCache:
    """Clients taken in turn: one probe per distinct pair per epoch."""

    def test_one_probe_per_distinct_pair_per_epoch(self, dag):
        service = ReachabilityService(dag.copy(), cache_size=4096)
        counts = {}
        real_query_many = service._index.query_many

        def counting_query_many(pairs):
            pairs = list(pairs)
            for pair in pairs:
                counts[pair] = counts.get(pair, 0) + 1
            return real_query_many(pairs)

        service._index.query_many = counting_query_many
        batches = [
            [(0, 10), (10, 20), (20, 30), (0, 10)],
            [(10, 20), (30, 40), (0, 10)],
            [(20, 30), (30, 40), (40, 50)],
        ]
        with BackgroundServer(service) as bs:
            for _ in range(3):  # repeats stress the dedup layers
                for pairs in batches:
                    with ReachabilityClient(bs.host, bs.port) as client:
                        assert client.query_many(pairs).results == oracle(
                            dag, pairs
                        )

            # 9 requests, 30 pairs, 7 distinct — batch dedup plus the
            # epoch-stamped cache probe the index once per distinct pair.
            distinct = {p for pairs in batches for p in pairs}
            assert counts == dict.fromkeys(distinct, 1)

            # A new epoch invalidates the cache: the same pairs probe
            # exactly once more each.
            with ReachabilityClient(bs.host, bs.port) as client:
                client.apply_batch([UpdateOp.insert_vertex("fresh")])
                reply = client.query_many(sorted(distinct))
            assert reply.epoch == 1
            assert counts == dict.fromkeys(distinct, 2)


class TestConcurrentClients:
    def test_each_client_gets_its_own_answers_in_order(self, dag, running):
        batches = {
            "a": [(0, 10), (10, 20), (20, 30), (0, 10)],
            "b": [(10, 20), (30, 40), (0, 10)],
            "c": [(20, 30), (30, 40), (40, 50)],
            "d": [(79, 0), (3, 3), (5, 40), (40, 5), (12, 60)],
        }
        wrong = []

        def worker(pairs):
            expected = oracle(dag, pairs)
            try:
                with ReachabilityClient(running.host, running.port) as client:
                    for _ in range(25):
                        reply = client.query_many(pairs)
                        if reply.results != expected:
                            wrong.append((pairs, reply.results))
            except Exception as exc:  # noqa: BLE001
                wrong.append(repr(exc))

        threads = [
            threading.Thread(target=worker, args=(pairs,))
            for pairs in batches.values()
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not wrong


class TestAdmissionControl:
    def test_overload_sheds_with_structured_error_and_serves_the_rest(
        self, dag
    ):
        service = ReachabilityService(dag.copy(), cache_size=4096)
        with BackgroundServer(service, max_connections=2) as bs:
            shed = []
            answered = []
            failures = []
            start = threading.Barrier(8)

            def flood(seed):
                pairs = [(seed % 80, (seed * 7 + i) % 80) for i in range(8)]
                try:
                    with ReachabilityClient(bs.host, bs.port) as client:
                        start.wait()
                        for _ in range(6):
                            try:
                                reply = client.query_many(pairs)
                            except OverloadedError as exc:
                                assert exc.retry_after_ms > 0
                                shed.append(1)
                                continue
                            if reply.results != oracle(dag, pairs):
                                failures.append(pairs)
                            answered.append(len(reply.results))
                except Exception as exc:  # noqa: BLE001
                    failures.append(repr(exc))

            threads = [
                threading.Thread(target=flood, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert not failures
            assert shed, "expected at least one shed under overload"
            assert answered, "admitted queries must still be served"
            assert service.registry.counter("net.shed").value == len(shed)

    def test_no_budget_when_max_connections_is_zero(self, dag):
        service = ReachabilityService(dag.copy(), cache_size=4096)
        with BackgroundServer(service, max_connections=0) as bs:
            clients = [ReachabilityClient(bs.host, bs.port) for _ in range(16)]
            try:
                assert all(c.ping()["pong"] for c in clients)
                assert all(
                    len(c.query_many([(0, 1)] * 64).results) == 64
                    for c in clients
                )
            finally:
                for c in clients:
                    c.close()
            assert service.registry.counter("net.shed").value == 0


class TestLifecycle:
    def test_shutdown_flushes_queued_updates(self, dag):
        service = ReachabilityService(dag.copy(), cache_size=0)
        with BackgroundServer(service) as bs:
            with ReachabilityClient(bs.host, bs.port) as client:
                client.apply_batch([UpdateOp.insert_vertex("queued-v")])
        # An acknowledged update was applied before its reply, so it is
        # there after the drain.
        assert "queued-v" in service

    def test_port_zero_binds_an_ephemeral_port(self, dag):
        service = ReachabilityService(dag.copy())
        with BackgroundServer(service, port=0) as bs:
            assert bs.port > 0
            with ReachabilityClient(bs.host, bs.port) as client:
                assert client.ping()["pong"] is True
