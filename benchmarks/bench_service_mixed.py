"""Serving-layer benchmark — mixed read/write throughput vs threads/cache.

The paper's evaluation times queries and updates separately; a serving
deployment runs them together.  This bench drives the concurrent
:class:`~repro.service.server.ReachabilityService` with a Zipf-skewed
query stream (the regime caches are built for) and measures:

* query throughput as reader threads scale (GIL-bound: expect roughly
  flat totals, not linear speedup — the point is that correctness and
  latency hold under contention, and that the lock does not collapse);
* the effect of cache size (off / small / large) on the same stream;
* mixed throughput with one writer thread applying updates in
  :meth:`~repro.service.server.ReachabilityService.apply_batch` chunks
  while readers hammer queries;
* steady-state write-path overhead of the durability layer (WAL off vs
  each fsync policy), so the crash-safety tax is a measured number;
* the protocol/serialization tax of the network front end: the same
  Zipfian batch stream in-process vs over a loopback socket through
  :mod:`repro.net`, so "what does the wire cost" is a measured number.
"""

import itertools
import threading
import time

import pytest

from repro import datasets as ds
from repro.bench.trace import generate_trace
from repro.bench.workloads import generate_zipfian_queries
from repro.net.client import ReachabilityClient
from repro.net.server import BackgroundServer
from repro.service.durability import DurabilityManager
from repro.service.server import ReachabilityService
from repro.core.ops import UpdateOp

from _config import QUICK, cached

DATASET = "citeseerx"
NUM_VERTICES = 600
NUM_QUERIES = 2000
ZIPF_SKEW = 1.1


def _graph():
    return ds.load(DATASET, num_vertices=NUM_VERTICES)


def _queries():
    return cached(
        ("service-queries", DATASET, NUM_VERTICES, NUM_QUERIES),
        lambda: generate_zipfian_queries(
            _graph(), NUM_QUERIES, skew=ZIPF_SKEW, seed=13
        ),
    )


def _apply_in_chunks(service, ops, size):
    """Apply *ops* through ``apply_batch`` calls of *size* ops each."""
    for lo in range(0, len(ops), size):
        service.apply_batch(ops[lo:lo + size])


def _run_readers(service, pairs, num_threads):
    """Partition *pairs* across *num_threads* batch-querying readers."""
    chunk = (len(pairs) + num_threads - 1) // num_threads
    threads = [
        threading.Thread(
            target=lambda lo=i * chunk: service.query_batch(
                pairs[lo:lo + chunk]
            )
        )
        for i in range(num_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


@pytest.mark.parametrize("num_threads", [1, 2, 4, 8])
def test_read_throughput_vs_threads(benchmark, num_threads):
    service = cached(
        ("service", DATASET, NUM_VERTICES),
        lambda: ReachabilityService(_graph(), cache_size=8192),
    )
    pairs = list(_queries().pairs)
    benchmark.pedantic(
        lambda: _run_readers(service, pairs, num_threads),
        rounds=3, iterations=1,
    )
    benchmark.extra_info["queries"] = NUM_QUERIES
    benchmark.extra_info["threads"] = num_threads


@pytest.mark.parametrize("cache_size", [0, 256, 8192])
def test_read_throughput_vs_cache_size(benchmark, cache_size):
    service = ReachabilityService(_graph(), cache_size=cache_size)
    pairs = list(_queries().pairs)
    benchmark.pedantic(
        lambda: _run_readers(service, pairs, 4),
        rounds=3, iterations=1,
    )
    stats = service.cache.stats()
    benchmark.extra_info["cache_size"] = cache_size
    benchmark.extra_info["hit_rate"] = stats["hit_rate"]
    if cache_size:
        # The Zipf head must actually produce repeat hits.
        assert stats["hit_rate"] and stats["hit_rate"] > 0


@pytest.mark.parametrize("chunk", [1, 16])
def test_mixed_readers_plus_writer(benchmark, chunk):
    graph = _graph()
    trace = generate_trace(graph, 60, seed=14, query_fraction=0.0)
    mutations = [UpdateOp.from_trace_op(op) for op in trace]
    pairs = list(_queries().pairs)

    def run():
        service = ReachabilityService(graph, cache_size=8192)

        def writer():
            _apply_in_chunks(service, mutations, chunk)

        threads = [
            threading.Thread(
                target=lambda lo=i * 500: service.query_batch(
                    pairs[lo:lo + 500]
                )
            )
            for i in range(4)
        ]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return service

    service = benchmark.pedantic(run, rounds=2, iterations=1)
    counters = service.registry.snapshot()["counters"]
    benchmark.extra_info["chunk"] = chunk
    assert service.epoch > 0
    assert counters["service.queries"] > 0
    assert counters["service.updates_applied"] > 0


def test_writer_throughput(benchmark):
    """Pure-writer throughput through the service.

    A mutation trace is applied in ``apply_batch`` chunks of 16;
    ``extra_info`` records writer ops/s — the serving-layer view of the
    ``BENCH_update.json`` kernel rates, validation and service
    bookkeeping included.
    """
    graph = _graph()
    num_ops = 40 if QUICK else 200
    trace = generate_trace(graph, num_ops, seed=16, query_fraction=0.0)
    mutations = [UpdateOp.from_trace_op(op) for op in trace]

    def drive():
        service = ReachabilityService(graph, cache_size=0)
        start = time.perf_counter()
        _apply_in_chunks(service, mutations, 16)
        elapsed = time.perf_counter() - start
        applied = service.registry.counter("service.updates_applied").value
        assert applied > 0
        return len(mutations) / elapsed

    # Warm up (service construction, caches), then keep the best round.
    drive()
    best = max(drive() for _ in range(2 if QUICK else 3))
    benchmark.pedantic(drive, rounds=1, iterations=1)
    benchmark.extra_info["writer_ops_per_second"] = round(best, 1)


@pytest.mark.parametrize("wal", ["off", "never", "batch", "always"])
def test_write_path_wal_overhead(benchmark, wal, tmp_path):
    """Update throughput with the WAL off vs each fsync policy.

    Same mutation trace through the same service; the only variable is
    the durability configuration, so the delta *is* the WAL tax.
    Ops go in ``apply_batch`` chunks of 8.  ``never`` isolates the
    encode+write cost, ``batch`` adds one fsync per batch (the
    recommended setting), ``always`` pays one per record.
    """
    graph = _graph()
    num_ops = 12 if QUICK else 120
    trace = generate_trace(graph, num_ops, seed=15, query_fraction=0.0)
    mutations = [UpdateOp.from_trace_op(op) for op in trace]
    fresh = itertools.count()

    def run():
        durability = None
        if wal != "off":
            durability = DurabilityManager(
                tmp_path / f"wal-{next(fresh)}",
                fsync=wal,
                checkpoint_every=0,  # isolate the log from snapshot cost
            )
        service = ReachabilityService(
            graph, cache_size=0, durability=durability
        )
        _apply_in_chunks(service, mutations, 8)
        if durability is not None:
            durability.close()
        return service

    service = benchmark.pedantic(run, rounds=2, iterations=1)
    counters = service.registry.snapshot()["counters"]
    benchmark.extra_info["wal"] = wal
    benchmark.extra_info["updates"] = num_ops
    if wal != "off":
        benchmark.extra_info["wal_records"] = counters["wal.records_appended"]
        benchmark.extra_info["wal_fsyncs"] = counters["wal.fsyncs"]
        assert counters["wal.records_appended"] > 0
    assert counters["service.updates_applied"] > 0


@pytest.mark.parametrize("transport", ["inproc", "socket"])
def test_network_protocol_overhead(benchmark, transport):
    """The wire tax: the same query stream in-process vs over loopback.

    ``inproc`` calls :meth:`ReachabilityService.query_batch` directly;
    ``socket`` sends the same batches through the framed protocol to a
    :class:`~repro.net.server.BackgroundServer` on 127.0.0.1.  The qps
    delta between the two rows is the protocol + serialization +
    event-loop overhead, recorded in ``extra_info`` so the BENCH report
    can quote it.
    """
    service = cached(
        ("service", DATASET, NUM_VERTICES),
        lambda: ReachabilityService(_graph(), cache_size=8192),
    )
    pairs = list(_queries().pairs)
    batch = 64
    batches = [
        pairs[lo:lo + batch] for lo in range(0, len(pairs), batch)
    ]
    if QUICK:
        batches = batches[: max(1, len(batches) // 4)]
    num_queries = sum(len(b) for b in batches)

    if transport == "inproc":
        def run():
            start = time.perf_counter()
            for chunk in batches:
                service.query_batch(chunk)
            return time.perf_counter() - start

        elapsed = benchmark.pedantic(run, rounds=3, iterations=1)
    else:
        with BackgroundServer(service) as bs:
            with ReachabilityClient(bs.host, bs.port) as client:
                def run():
                    start = time.perf_counter()
                    for chunk in batches:
                        client.query_many(chunk)
                    return time.perf_counter() - start

                elapsed = benchmark.pedantic(run, rounds=3, iterations=1)

    benchmark.extra_info["transport"] = transport
    benchmark.extra_info["queries"] = num_queries
    benchmark.extra_info["batch"] = batch
    benchmark.extra_info["qps"] = num_queries / elapsed if elapsed > 0 else 0.0
