"""Figure 4 — average vertex-deletion time on dynamic graphs.

Per-cell timings for representative datasets plus the full figure written
to ``benchmarks/results/fig4.txt``.  The paper's shape: BU/BL are
comparable to Dagger except on the dense RG rows and wiki, where repairing
the labels of the victim's descendants and ancestors is the price of TOL's
fast queries.
"""

import pytest

from repro import datasets as ds
from repro.bench.experiments import fig4_deletion, run_update_sweep
from repro.bench.harness import DYNAMIC_METHODS, build_method
from repro.bench.workloads import generate_updates

from _config import (
    CELL_DATASETS,
    NUM_UPDATES,
    UPDATE_VERTICES,
    cached,
    publish,
)


def _sweep():
    return cached(
        ("update-sweep", UPDATE_VERTICES, NUM_UPDATES),
        lambda: run_update_sweep(
            num_vertices=UPDATE_VERTICES, num_updates=NUM_UPDATES
        ),
    )


@pytest.mark.parametrize("method", DYNAMIC_METHODS)
@pytest.mark.parametrize("dataset", CELL_DATASETS)
def test_deletion_batch(benchmark, dataset, method):
    """Time the deletion phase of the paper's update protocol."""
    graph = ds.load(dataset, num_vertices=UPDATE_VERTICES)
    workload = generate_updates(graph, NUM_UPDATES, seed=1)

    def setup():
        return (build_method(method, graph),), {}

    def delete_all(index):
        for v in workload.victims:
            index.delete_vertex(v)

    benchmark.pedantic(delete_all, setup=setup, rounds=1, iterations=1)
    benchmark.extra_info["avg_delete_ms"] = (
        benchmark.stats.stats.mean / NUM_UPDATES * 1e3
    )


def test_render_fig4(benchmark):
    result = fig4_deletion(sweep=_sweep(), num_updates=NUM_UPDATES)
    benchmark(result.render)
    publish(result)
    assert len(result.rows) == 15
