"""End-to-end tests for multi-process serving (``repro serve --workers``).

Each test boots the real thing as a subprocess: a writer process plus N
reader workers sharing one listening socket and one shared-memory
snapshot.  Covered here: query correctness against a BFS oracle, the
per-worker stats/health surfaces, epoch monotonicity under a live
update stream, worker supervision (kill one, watch it respawn), and
booting from a ``repro build`` ``.tolf`` pack.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.graph.generators import random_dag
from repro.graph.io import write_edge_list
from repro.graph.traversal import bidirectional_reachable
from repro.net.client import ReachabilityClient
from repro.net.loadgen import spawned_server
from repro.service.updates import UpdateOp

WORKERS_ARGS = ["--workers", "2"]


@pytest.fixture(scope="module")
def graph():
    return random_dag(100, 300, seed=21)


@pytest.fixture(scope="module")
def graph_file(graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("workers") / "graph.txt"
    write_edge_list(graph, path)
    return path


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
