"""Tests of the benchmark itself (run: python3 -m pytest servebench -q)."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, require_sources  # noqa: E402

require_sources()

import inputs  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TINY = 300


def _generate(workload, seed, tmp_path, tag):
    run_dir = tmp_path / tag
    run_dir.mkdir()
    made = inputs.build_inputs(
        inputs.WORKLOADS[workload], seed, run_dir, 1, vertices=TINY)
    return made, made.graph_path.read_bytes()


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_inputs_are_deterministic_per_seed(workload, tmp_path):
    a, a_graph = _generate(workload, 7, tmp_path, "a")
    b, b_graph = _generate(workload, 7, tmp_path, "b")
    c, c_graph = _generate(workload, 8, tmp_path, "c")
    assert a_graph == b_graph
    assert a.read_batches == b.read_batches
    assert a.update_batches == b.update_batches
    assert a.ops == b.ops
    assert a.check_pairs == b.check_pairs
    # The graph and the update sequence are fixed; the reads follow the seed.
    assert (a_graph, a.ops) == (c_graph, c.ops)
    assert a.read_batches != c.read_batches
    assert a.check_pairs != c.check_pairs


def test_update_round_restores_the_graph(tmp_path):
    made, _ = _generate("churn", 3, tmp_path, "g")
    model = made.graph.copy()
    for op in made.ops:
        op.apply_to_graph(model)
    assert set(model.edges()) == set(made.graph.edges())
    assert set(model.vertices()) == set(made.graph.vertices())


def test_churn_replays_the_round_to_fill_the_run(tmp_path):
    churn = inputs.WORKLOADS["churn"]
    made = inputs.build_inputs(churn, 1, tmp_path, 30, vertices=TINY)
    assert made.passes * churn.pass_seconds >= 30
    assert made.passes >= 10


def test_fastest_keeps_each_requests_fastest_time():
    from common import fastest

    assert fastest([(0, 3.0), (1, 2.0), (0, 1.0), (1, 5.0)]) == {0: 1.0, 1: 2.0}


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == traced.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    for name in [*end_to_end, *per_layer, *inputs.WORKLOADS]:
        assert NAME.match(name), name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_tiny_run_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace),
         "--vertices", str(TINY)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    names = run.END_TO_END if trace == 0 else traced.PER_LAYER
    assert set(result["metrics"]) == set(names)


def test_refuses_to_run_without_sources(tmp_path):
    copy = tmp_path / "servebench"
    copy.mkdir()
    for path in HERE.glob("*.py"):
        (copy / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "read-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
