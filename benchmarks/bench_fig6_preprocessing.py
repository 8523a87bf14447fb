"""Figure 6 — preprocessing (index construction) time on static graphs.

Shapes to look for: construction cost tracks index size, so BU/BL build
faster than DL/TF on the dense RG rows; Dagger's interval labeling is the
cheapest build but the worst queries (Figure 7).

``test_build_headline`` additionally emits the ``BENCH_build.json``
headline (repo root at full scale, ``results-smoke/`` under
``--quick``; see :mod:`_provenance`) — vertices/sec for BU and BL preprocessing
(order computation + Butterfly build) on standard synthetic sizes.  Each
pipeline is timed against a yardstick run in the same process on the
same host, interleaved with it: the independent PLL construction
(:func:`~repro.baselines.static_labels.pruned_landmark_build`) under the
same order.  Both produce the same Definition-1 labeling; PLL never
peels vertices and so traverses more.  The bench doubles as the CI
regression gate (``bench-build`` step, ``--quick`` scale): each Butterfly
pipeline must be at least as fast as the PLL one.
"""

import gc
import time

import pytest

from repro import datasets as ds
from repro.bench.experiments import fig6_preprocessing, run_static_sweep
from repro.baselines.static_labels import pruned_landmark_build
from repro.bench.harness import STATIC_METHODS, build_method
from repro.core.butterfly import butterfly_build
from repro.core.orders import resolve_order_strategy
from repro.graph.generators import random_dag

from _config import (
    CELL_DATASETS,
    NUM_QUERIES,
    QUICK,
    STATIC_VERTICES,
    cached,
    publish,
)
from _provenance import write_headline

#: Standard synthetic sizes for the headline (full scale / smoke scale).
HEADLINE_SIZES = [(300, 1200)] if QUICK else [(2000, 8000), (5000, 20000)]

#: Min-of-N repetitions per pipeline (more at smoke scale: tiny builds
#: are noisier, and the CI gate asserts on the ratio).
HEADLINE_REPS = 7 if QUICK else 3

#: CI gate: Butterfly preprocessing must be at least this many times as
#: fast as PLL preprocessing under the same order.
MIN_SPEEDUP_VS_PLL = 1.0


def _sweep():
    return cached(
        ("static-sweep", STATIC_VERTICES, NUM_QUERIES),
        lambda: run_static_sweep(
            num_vertices=STATIC_VERTICES, num_queries=NUM_QUERIES
        ),
    )


@pytest.mark.parametrize("method", STATIC_METHODS)
@pytest.mark.parametrize("dataset", CELL_DATASETS)
def test_build(benchmark, dataset, method):
    graph = ds.load(dataset, num_vertices=STATIC_VERTICES)
    index = benchmark.pedantic(
        build_method, args=(method, graph), rounds=1, iterations=1
    )
    benchmark.extra_info["index_bytes"] = index.size_bytes()


def test_render_fig6(benchmark):
    result = fig6_preprocessing(sweep=_sweep())
    benchmark(result.render)
    publish(result)
    assert len(result.rows) == 15


def _time_pipeline(graph, strategy, build):
    """Wall seconds for one order computation + *build* under that order.

    The snapshot cache is cleared first, so the timing includes one CSR
    packing pass per pipeline — the real cost model: the order strategy
    packs the snapshot and the Butterfly build reuses it.
    """
    graph.release_csr()
    start = time.perf_counter()
    build(graph, strategy(graph))
    return time.perf_counter() - start


def _time_preprocessing(graph, method, reps):
    """Best-of-*reps* ``(butterfly_seconds, pll_seconds)`` for *method*.

    The two pipelines alternate rep by rep, so slow machine drift — CI
    neighbors, thermal throttling — lands on both sides of the ratio.
    """
    strategy = resolve_order_strategy(method)
    best = [float("inf"), float("inf")]
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            for side, build in enumerate(
                (butterfly_build, pruned_landmark_build)
            ):
                best[side] = min(
                    best[side], _time_pipeline(graph, strategy, build)
                )
    finally:
        if gc_was_enabled:
            gc.enable()
    return best[0], best[1]


def test_build_headline(benchmark):
    """Emit ``BENCH_build.json`` and gate Butterfly against PLL."""
    methods = {"BU": "butterfly-u", "BL": "butterfly-l"}
    graphs = []
    for num_vertices, num_edges in HEADLINE_SIZES:
        graph = random_dag(num_vertices, num_edges, seed=0)
        entry = {
            "dataset": "random_dag",
            "num_vertices": num_vertices,
            "num_edges": num_edges,
            "seed": 0,
            "methods": {},
        }
        for label, strategy in methods.items():
            seconds, pll_s = _time_preprocessing(
                graph, strategy, HEADLINE_REPS
            )
            entry["methods"][label] = {
                "seconds": round(seconds, 6),
                "pll_seconds": round(pll_s, 6),
                "speedup_vs_pll": round(pll_s / seconds, 3),
                "vertices_per_second": round(num_vertices / seconds, 1),
            }
        graphs.append(entry)

    top = graphs[-1]
    headline = {
        "method": "BU",
        "num_vertices": top["num_vertices"],
        "num_edges": top["num_edges"],
        "vertices_per_second": top["methods"]["BU"]["vertices_per_second"],
        "speedup_vs_pll": top["methods"]["BU"]["speedup_vs_pll"],
    }
    payload = {
        "benchmark": "butterfly-build-preprocessing",
        "generated_by": (
            "benchmarks/bench_fig6_preprocessing.py::test_build_headline"
        ),
        "protocol": (
            f"min-of-{HEADLINE_REPS} wall seconds, gc paused, snapshot "
            f"cache cleared per rep; seconds = order computation + build; "
            f"pll_seconds = the same order + pruned_landmark_build, "
            f"interleaved rep by rep"
        ),
        "quick": QUICK,
        "headline": headline,
        "graphs": graphs,
    }
    write_headline("BENCH_build.json", payload)
    benchmark.extra_info.update(headline)
    benchmark.pedantic(
        _time_pipeline,
        args=(
            random_dag(*HEADLINE_SIZES[-1], seed=0),
            resolve_order_strategy("butterfly-u"),
            butterfly_build,
        ),
        rounds=1,
        iterations=1,
    )
    for entry in graphs:
        for label, cell in entry["methods"].items():
            assert cell["speedup_vs_pll"] >= MIN_SPEEDUP_VS_PLL, (
                f"{label} preprocessing slower than PLL under the same "
                f"order on random_dag({entry['num_vertices']}, "
                f"{entry['num_edges']}): {cell['seconds']}s vs "
                f"{cell['pll_seconds']}s"
            )
