"""Tests for the multi-process load harness.

The slow tests here boot a real ``repro serve`` subprocess and drive it
with real client processes — this is the acceptance path for the
serving subsystem (aggregate qps + percentiles from >= 4 clients,
overload runs shedding while admitted answers stay correct).
"""

import json

import pytest

from repro.graph.generators import random_dag
from repro.graph.io import write_edge_list
from repro.net.protocol import PROTOCOL_VERSION
from repro.net.loadgen import (
    percentile,
    run_loadgen,
    spawned_server,
    write_bench_json,
)


class TestPercentile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.25) == 1.0
        assert percentile(values, 0.5) == 2.0
        assert percentile(values, 0.75) == 3.0
        assert percentile(values, 1.0) == 4.0

    def test_single_sample(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.99) == 7.0

    def test_rejects_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 0.0)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


@pytest.fixture(scope="module")
def graph():
    return random_dag(120, 360, seed=11)


@pytest.fixture(scope="module")
def graph_file(graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("loadgen") / "graph.txt"
    write_edge_list(graph, path)
    return path


@pytest.mark.slow
class TestLoadgenEndToEnd:
    def test_four_clients_verified(self, graph, graph_file, tmp_path):
        with spawned_server(graph_file) as server:
            result = run_loadgen(
                server.host,
                server.port,
                graph,
                clients=4,
                duration=1.5,
                batch=8,
                seed=3,
                verify=True,
            )
            exit_code = server.terminate()

        assert exit_code == 0, "SIGTERM drain must exit cleanly"
        assert result["clients"] == 4
        assert len(result["per_client"]) == 4
        assert result["totals"]["queries"] > 0
        assert result["totals"]["verify_failures"] == 0
        assert result["totals"]["errors"] == 0
        assert result["qps"] > 0
        lat = result["latency_ms"]
        assert 0 < lat["p50"] <= lat["p99"] <= lat["max"]

        artifact = write_bench_json(result, tmp_path / "BENCH_serve.json")
        loaded = json.loads(artifact.read_text())
        assert loaded["benchmark"] == "serve"
        assert loaded["protocol_version"] == PROTOCOL_VERSION
        assert set(loaded["totals"]) == {
            "queries", "requests", "shed", "errors", "unavailable",
            "stale_replies", "degraded_replies", "verify_failures",
        }
        assert loaded["availability"] == 1.0
        assert loaded["chaos"] is None
        assert {"p50", "p99", "mean", "max"} <= set(loaded["latency_ms"])

    def test_overload_sheds_but_admitted_answers_stay_correct(
        self, graph, graph_file
    ):
        # Four clients against a two-connection budget: two hold their
        # connections, the other two are shed on every attempt.
        args = ["--max-connections", "2"]
        with spawned_server(graph_file, server_args=args) as server:
            result = run_loadgen(
                server.host,
                server.port,
                graph,
                clients=4,
                duration=1.5,
                batch=16,
                seed=4,
                verify=True,
            )
            server.terminate()

        assert result["totals"]["shed"] > 0, result["totals"]
        assert result["totals"]["verify_failures"] == 0
        assert result["totals"]["queries"] > 0

    def test_run_loadgen_validates_arguments(self, graph):
        with pytest.raises(ValueError):
            run_loadgen("127.0.0.1", 1, graph, clients=0)
        with pytest.raises(ValueError):
            run_loadgen("127.0.0.1", 1, graph, duration=0)
