"""End-to-end tests for multi-process serving (``repro serve --workers``).

Each slow test boots the real thing as a subprocess: a writer process
plus N reader workers sharing one listening socket and one shared-memory
snapshot.  Covered here: query correctness against a BFS oracle, the
per-worker stats/health surfaces, epoch monotonicity under a live
update stream, worker supervision (kill one, watch it respawn), and
booting from a ``repro build`` ``.tolf`` pack.  :class:`TestWriterLink`
drives one reader worker in process against a fake writer.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.graph.traversal import bidirectional_reachable
from repro.net.client import ReachabilityClient
from repro.net.loadgen import spawned_server
from repro.net.protocol import recv_frame_file
from repro.net.worker import _ReaderWorker
from repro.core.ops import UpdateOp
from repro.shm.control import ControlBlock, new_base_name, unlink_segment

WORKERS_ARGS = ["--workers", "2"]


def oracle(graph, pairs):
    return [bidirectional_reachable(graph, s, t) for s, t in pairs]


def non_edges(graph, count):
    """Some absent (tail, head) pairs over existing vertices."""
    vertices = sorted(graph.vertices())
    out = []
    for tail in vertices:
        for head in vertices:
            if tail != head and not graph.has_edge(tail, head):
                out.append((tail, head))
                if len(out) == count:
                    return out
    return out


@pytest.mark.slow
class TestMultiProcessServing:
    def test_queries_ping_stats_health(self, graph, graph_file):
        pairs = [(0, 50), (50, 0), (3, 3), (12, 80), (99, 1), (7, 42)]
        with spawned_server(graph_file, server_args=WORKERS_ARGS) as server:
            with ReachabilityClient(server.host, server.port) as client:
                # Queries answered from the shared snapshot.
                reply = client.query_many(pairs, timings=True)
                assert reply.results == oracle(graph, pairs)
                assert reply.epoch == 0
                assert reply.degraded is False
                # The worker stamps its identity on the timing breakdown.
                assert reply.timings["worker"] in (0, 1)
                assert reply.timings["generation"] >= 1

                pong = client.ping()
                assert pong["pong"] is True
                assert pong["worker"] in (0, 1)

                # stats is forwarded to the writer and carries the
                # per-worker breakdown from the control block.
                stats = client._call({"op": "stats"})
                workers = stats["workers"]
                assert len(workers) == 2
                assert all(w["pid"] > 0 for w in workers)
                assert all(w["alive"] for w in workers)
                assert sum(w["requests"] for w in workers) >= 1

                health = client.health()
                snapshot = health["snapshot"]
                assert snapshot is not None
                assert snapshot["generation"] >= 1
                assert snapshot["bytes"] > 0
                assert snapshot["worker_restarts"] == 0
                assert len(snapshot["workers"]) == 2
                assert snapshot["last_publish"]["ms"] > 0.0
            exit_code = server.terminate()
        assert exit_code == 0, "SIGTERM drain must exit cleanly"

    def test_update_stream_epoch_monotone_no_errors(self, graph, graph_file):
        edges = non_edges(graph, 6)
        mutated = graph.copy()
        with spawned_server(graph_file, server_args=WORKERS_ARGS) as server:
            with ReachabilityClient(server.host, server.port) as client:
                last_epoch = client.query_many([(0, 1)]).epoch
                for tail, head in edges:
                    accepted = client.apply(UpdateOp.insert_edge(tail, head))
                    assert accepted == 1
                    mutated.add_edge(tail, head)
                    # Interleave queries with the update stream; every
                    # reply must succeed and epochs must never go back.
                    reply = client.query_many([(tail, head), (0, 1)])
                    assert reply.epoch >= last_epoch
                    last_epoch = reply.epoch

                # Wait for the republish to surface the new reachability
                # through the snapshot plane.
                deadline = time.monotonic() + 10.0
                expected = oracle(mutated, edges)
                while time.monotonic() < deadline:
                    reply = client.query_many(edges)
                    assert reply.epoch >= last_epoch
                    last_epoch = reply.epoch
                    if reply.results == expected:
                        break
                    time.sleep(0.05)
                assert reply.results == expected
                assert last_epoch > 0
            server.terminate()

    def test_killed_worker_is_respawned(self, graph, graph_file):
        with spawned_server(graph_file, server_args=WORKERS_ARGS) as server:
            with ReachabilityClient(server.host, server.port) as client:
                victims = [
                    w["pid"] for w in client._call({"op": "stats"})["workers"]
                ]
            os.kill(victims[0], signal.SIGKILL)

            # The supervisor polls every 0.25s; wait for the restart
            # counter to tick and the replacement to come up.
            deadline = time.monotonic() + 15.0
            restarts = 0
            while time.monotonic() < deadline:
                try:
                    with ReachabilityClient(
                        server.host, server.port, timeout=5.0
                    ) as client:
                        snapshot = client.health()["snapshot"]
                    restarts = snapshot["worker_restarts"]
                    if restarts >= 1 and all(
                        w["alive"] for w in snapshot["workers"]
                    ):
                        break
                except OSError:
                    pass  # connected to the dying worker; retry
                time.sleep(0.1)
            assert restarts >= 1

            pairs = [(0, 50), (12, 80), (99, 1)]
            with ReachabilityClient(server.host, server.port) as client:
                assert client.query_many(pairs).results == oracle(
                    graph, pairs
                )
            server.terminate()


@pytest.mark.slow
class TestSnapshotBoot:
    def test_pack_then_serve_snapshot(self, graph, graph_file, tmp_path):
        import repro

        pack = tmp_path / "graph.tolf"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "build",
             str(graph_file), str(pack)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "built" in proc.stdout
        assert pack.stat().st_size > 0

        pairs = [(0, 50), (50, 0), (12, 80), (99, 1)]
        args = ["--snapshot", str(pack), *WORKERS_ARGS]
        with spawned_server(graph_file, server_args=args) as server:
            with ReachabilityClient(server.host, server.port) as client:
                assert client.query_many(pairs).results == oracle(
                    graph, pairs
                )
                # A pack-booted server still takes updates.
                tail, head = non_edges(graph, 1)[0]
                assert client.apply(UpdateOp.insert_edge(tail, head)) == 1
            server.terminate()


class OneFrameWriter:
    """A fake writer: reads one frame from each connection, then closes it."""

    def __init__(self):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.received = []
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            with conn:
                request = recv_frame_file(conn.makefile("rb"))
                if request is not None:
                    self.received.append(request["op"])

    def close(self):
        self.sock.shutdown(socket.SHUT_RDWR)
        self.sock.close()
        self.thread.join(timeout=5)


class TestWriterLink:
    """A forward that fails after its request reached the writer."""

    @pytest.fixture()
    def writer(self):
        fake = OneFrameWriter()
        yield fake
        fake.close()

    @pytest.fixture()
    def worker(self, writer):
        control = ControlBlock.create(new_base_name(), num_workers=1)
        control.set_writer_pid(os.getpid())  # the fake writer "lives"
        listener = socket.create_server(("127.0.0.1", 0))
        worker = _ReaderWorker(
            listen_fd=listener.detach(),
            control_name=control.name,
            writer_host="127.0.0.1",
            writer_port=writer.port,
            worker_id=0,
            forward_timeout=5.0,
        )
        yield worker
        worker.link.close()
        worker.slot.release()
        worker.reader.close()
        worker._sock.close()
        control.close()
        # The worker's attach handed the name off the resource tracker,
        # so unlink without tracker traffic.
        unlink_segment(control.name)

    def test_update_is_sent_once_and_answered_writer_unavailable(
        self, writer, worker
    ):
        reply = worker.dispatch({
            "v": 2, "id": 7, "op": "update",
            "ops": [UpdateOp.insert_vertex("once").to_dict()],
        })
        assert reply["ok"] is False
        assert reply["error"]["code"] == "writer_unavailable"
        assert writer.received == ["update"]

    def test_query_is_still_retried_once(self, writer, worker):
        # Nothing is published, so the query is forwarded to the writer.
        reply = worker.dispatch(
            {"v": 2, "id": 8, "op": "query", "pairs": [[0, 1]]}
        )
        assert reply["error"]["code"] == "writer_unavailable"
        assert writer.received == ["query", "query"]
