"""Tests for the command-line interface (in-process, via cli.main)."""

import pytest

from repro.cli import EXIT_SERIALIZATION, EXIT_UNKNOWN_VERTEX, main
from repro.core.serialize import load_index
from repro.graph.io import read_edge_list


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    assert main(["generate", "wiki", str(path), "--vertices", "200"]) == 0
    return path


@pytest.fixture
def index_file(graph_file, tmp_path):
    path = tmp_path / "g.tolf"
    assert main(["build", str(graph_file), str(path), "--order", "bu"]) == 0
    return path


class TestGenerate:
    def test_writes_edge_list(self, graph_file):
        graph = read_edge_list(graph_file)
        assert graph.num_vertices == 200

    def test_unknown_dataset_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "nope", str(tmp_path / "x.txt")])

    def test_deterministic_seed(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["generate", "RG5", str(a), "--vertices", "150", "--seed", "3"])
        main(["generate", "RG5", str(b), "--vertices", "150", "--seed", "3"])
        assert read_edge_list(a) == read_edge_list(b)


class TestBuild:
    def test_creates_loadable_index(self, index_file):
        index = load_index(index_file)
        assert index.num_vertices == 200

    def test_stats_printed(self, graph_file, tmp_path, capsys):
        main(["build", str(graph_file), str(tmp_path / "i.tolf")])
        out = capsys.readouterr().out
        assert "|L|=" in out and "built" in out

    def test_missing_graph_file(self, tmp_path, capsys):
        code = main(["build", str(tmp_path / "missing.txt"), str(tmp_path / "i")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_order_choices(self, graph_file, tmp_path):
        assert main([
            "build", str(graph_file), str(tmp_path / "dl.tolf"), "--order", "dl",
        ]) == 0


class TestQuery:
    def test_reachable_pair(self, index_file, capsys):
        graph = load_index(index_file).condensation.graph
        tail, head = next(iter(graph.edges()))
        assert main(["query", str(index_file), str(tail), str(head)]) == 0
        assert "reachable" in capsys.readouterr().out

    def test_witness_flag(self, index_file, capsys):
        assert main(["query", str(index_file), "0", "0", "--witness"]) == 0
        assert "witness" in capsys.readouterr().out

    def test_odd_vertex_count_rejected(self, index_file, capsys):
        assert main(["query", str(index_file), "1"]) == 2

    def test_unknown_vertex_exit_code(self, index_file, capsys):
        assert main(["query", str(index_file), "424242", "0"]) == EXIT_UNKNOWN_VERTEX
        assert "error" in capsys.readouterr().err

    def test_corrupt_index_serialization_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "corrupt.tolf"
        bad.write_bytes(b"definitely not an index artifact")
        assert main(["query", str(bad), "0", "1"]) == EXIT_SERIALIZATION
        assert "error" in capsys.readouterr().err


class TestUpdate:
    def test_insert_then_query(self, index_file, capsys):
        assert main([
            "update", str(index_file), "--insert", "9999", "--in", "0",
        ]) == 0
        assert main(["query", str(index_file), "0", "9999"]) == 0
        assert "reachable" in capsys.readouterr().out

    def test_delete(self, index_file):
        assert main(["update", str(index_file), "--delete", "0"]) == 0
        index = load_index(index_file)
        assert 0 not in index

    def test_noop_rejected(self, index_file):
        assert main(["update", str(index_file)]) == 2

    def test_cycle_insert_merges_components(self, index_file, capsys):
        # `repro build` indexes the SCC condensation, so an insert that
        # closes a cycle merges components instead of being rejected.
        graph = load_index(index_file).condensation.graph
        tail, head = next(iter(graph.edges()))
        code = main([
            "update", str(index_file),
            "--insert", "777", "--in", str(head), "--out", str(tail),
        ])
        assert code == 0
        assert main(["query", str(index_file), str(head), str(tail)]) == 0
        assert f"{head} -> {tail}: reachable" in capsys.readouterr().out
        index = load_index(index_file)
        assert index.condensation.same_component(777, head)


class TestStatsAndReduce:
    def test_stats(self, index_file, capsys):
        assert main(["stats", str(index_file), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "heaviest" in out and "|L|=" in out

    def test_reduce_shrinks_or_keeps(self, graph_file, tmp_path, capsys):
        path = tmp_path / "tf.tolf"
        main(["build", str(graph_file), str(path), "--order", "tf"])
        before = load_index(path).size()
        assert main(["reduce", str(path)]) == 0
        assert load_index(path).size() <= before


class TestExperiments:
    def test_single_experiment(self, capsys):
        assert main(["experiments", "--only", "table3", "--vertices", "100"]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["experiments", "--only", "fig99"]) == 2


@pytest.fixture
def trace_file(graph_file, tmp_path):
    path = tmp_path / "ops.trace"
    code = main([
        "trace-generate", str(graph_file), str(path),
        "--ops", "80", "--seed", "5",
    ])
    assert code == 0
    return path


class TestMetrics:
    def test_prometheus_to_stdout(self, graph_file, trace_file, capsys):
        assert main(["metrics", str(graph_file), str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE span_tol_build_seconds histogram" in out
        assert "# TYPE service_queries_total counter" in out
        assert "cache_hit_rate" in out

    def test_json_out_with_events(self, graph_file, trace_file, tmp_path):
        import json

        out = tmp_path / "m.json"
        events = tmp_path / "ops.jsonl"
        code = main([
            "metrics", str(graph_file), str(trace_file),
            "--format", "json", "--out", str(out), "--events", str(events),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert "span.tol.build" in doc["histograms"]
        records = [
            json.loads(line) for line in events.read_text().splitlines()
        ]
        assert any(r["name"] == "tol.build.level" for r in records)
        # Tracing must not leak out of the command.
        from repro.obs import trace

        assert not trace.active()


class TestServeReplay:
    def test_metrics_out_flag(self, graph_file, trace_file, tmp_path, capsys):
        out = tmp_path / "m.prom"
        code = main([
            "serve-replay", str(graph_file), str(trace_file),
            "--readers", "2", "--metrics-out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert "# TYPE service_queries_total counter" in text
        assert "span_tol_build_seconds_count 1" in text
        assert "wrote prometheus metrics" in capsys.readouterr().out

    @pytest.mark.slow
    def test_sigint_flushes_metrics_out(self, graph_file, trace_file, tmp_path):
        import os
        import signal
        import subprocess
        import sys
        import time

        import repro

        src_root = str(
            __import__("pathlib").Path(repro.__file__).resolve().parent.parent
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        out = tmp_path / "interrupted.prom"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve-replay",
                str(graph_file), str(trace_file),
                "--rounds", "200000", "--metrics-out", str(out),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            time.sleep(2.5)
            proc.send_signal(signal.SIGINT)
            stdout, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 130, stdout
        assert "interrupted by signal" in stdout
        assert out.exists(), "metrics must be flushed on SIGINT"
        assert "service_queries_total" in out.read_text()


class TestServeAndLoadgenParsing:
    """Argument plumbing for the network subcommands.

    End-to-end serving runs live in tests/net/test_loadgen.py; these
    only cover CLI-level validation and error codes.
    """

    def test_serve_missing_graph_file(self, tmp_path, capsys):
        code = main(["serve", str(tmp_path / "missing.txt")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_writer_receives_every_service_option(self):
        from repro.cli import _writer_argv, build_parser

        # A non-default value for every option of the served service.
        options = {
            "snapshot": "g.tolf",
            "order": "butterfly-l",
            "cache_size": 17,
            "wal": "state",
            "fsync": "always",
            "checkpoint_every": 9,
            "grace_period": 0.75,
            "drain_timeout": 3.5,
            "metrics_out": "m.prom",
            "slowlog": "slow.jsonl",
            "slow_ms": 2.5,
            "slowlog_sample": 0.25,
            "flight_dir": "flight",
            "flight_interval": 0.2,
            "flight_capacity": 32,
        }
        argv = ["serve", "g.txt", "--workers", "2"]
        for dest, value in options.items():
            argv += ["--" + dest.replace("_", "-"), str(value)]
        parser = build_parser()
        serve = parser.parse_args(argv)
        writer = parser.parse_args(
            ["serve-writer", "--fd", "3", "--control", "ctl",
             *_writer_argv(serve)]
        )
        assert writer.graph == "g.txt"
        forwarded = {dest: getattr(writer, dest) for dest in options}
        assert forwarded == {dest: getattr(serve, dest) for dest in options}
        assert forwarded == options
        # The writer accepts no service option the test does not cover.
        plumbing = {"command", "func", "fd", "control", "graph"}
        assert set(vars(writer)) - plumbing == set(options)

    def test_loadgen_requires_spawn_or_port(self, graph_file, capsys):
        assert main(["loadgen", str(graph_file)]) == 2
        assert "--spawn" in capsys.readouterr().err

    def test_loadgen_rejects_spawn_with_port(self, graph_file, capsys):
        code = main(["loadgen", str(graph_file), "--spawn", "--port", "1"])
        assert code == 2
