"""Concurrency stress tests: 8 readers + 1 writer against a BFS oracle.

The invariant under test is the service's core consistency guarantee:
every answer is produced together with an epoch stamp, under one
read-lock hold, so the (answer, epoch) pair must match a from-scratch
BFS oracle (:mod:`repro.baselines.search`) evaluated on the graph as it
existed at exactly that epoch.  The graph at any epoch is reconstructed
from the writer's own ``(epoch, op)`` log: it is the only writer, so
each op it lands moves the epoch by one, which is what makes the check
exact rather than probabilistic.
"""

import threading
import time

import pytest

from repro.baselines.search import BFSBaseline
from repro.bench.trace import generate_trace
from repro.core.index import ReachabilityIndex
from repro.errors import ReproError
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.service.server import ReachabilityService
from repro.core.ops import UpdateOp

READERS = 8


def apply_to_graph(graph: DiGraph, op: UpdateOp) -> None:
    """Mirror one applied service op onto a plain graph (oracle state)."""
    op.apply_to_graph(graph)


@pytest.mark.parametrize("batch_size", [1, 6])
def test_stress_readers_vs_writer_against_bfs_oracle(batch_size):
    graph = random_dag(50, 130, seed=11)
    trace = generate_trace(graph, 160, seed=12, query_fraction=0.5)
    mutations = [UpdateOp.from_trace_op(op) for op in trace
                 if op.kind != "query"]
    queries = [(op.tail, op.head) for op in trace if op.kind == "query"]
    assert mutations and queries

    service = ReachabilityService(graph, cache_size=512)
    applied: list[tuple[int, UpdateOp]] = []  # (epoch, op), writer-side
    records: list[list[tuple]] = [[] for _ in range(READERS)]
    unknown = [0] * READERS

    def reader(idx: int) -> None:
        offset = idx * 5
        for round_no in range(3):
            for i in range(len(queries)):
                s, t = queries[(offset + i) % len(queries)]
                try:
                    answer, epoch = service.query_with_epoch(s, t)
                except (ReproError, KeyError):
                    unknown[idx] += 1
                    continue
                records[idx].append((s, t, answer, epoch))

    def writer() -> None:
        for i in range(0, len(mutations), batch_size):
            batch = mutations[i:i + batch_size]
            epoch = service.epoch  # the sole writer: nothing else moves it
            if service.apply_batch(batch) == len(batch):
                applied.extend(enumerate(batch, epoch + 1))
            time.sleep(0.001)  # spread writes across the read storm

    threads = [threading.Thread(target=reader, args=(i,))
               for i in range(READERS)]
    threads.append(threading.Thread(target=writer))
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)

    # Reconstruct the graph at every epoch from the writer's log.
    assert applied, "the writer must have applied something"
    oracle_graph = graph.copy()
    oracles = {0: BFSBaseline(oracle_graph)}
    for epoch, op in applied:
        apply_to_graph(oracle_graph, op)
        oracles[epoch] = BFSBaseline(oracle_graph)

    # Every recorded (answer, epoch) pair must match the oracle exactly.
    checked = set()
    for per_reader in records:
        for s, t, answer, epoch in per_reader:
            key = (s, t, answer, epoch)
            if key in checked:
                continue
            checked.add(key)
            assert answer == oracles[epoch].query(s, t), (
                f"{s}->{t} answered {answer} at epoch {epoch}"
            )
    assert checked, "readers must have recorded verifiable answers"

    # The repeated rounds over a fixed query set must have hit the cache.
    assert service.cache.stats()["hits"] > 0
    assert service.epoch == len(applied)


def test_query_batch_under_concurrent_readers_matches_single_threaded():
    # Acceptance criterion: 8 readers batch-querying concurrently get
    # byte-identical answers to a single-threaded ReachabilityIndex.
    graph = random_dag(60, 150, seed=21)
    trace = generate_trace(graph, 120, seed=22, query_fraction=0.0,
                           acyclic=True)
    service = ReachabilityService(graph, cache_size=2048)
    service.apply_batch(UpdateOp.from_trace_op(op) for op in trace)

    plain = ReachabilityIndex(graph)
    for op in trace:
        UpdateOp.from_trace_op(op).apply(plain)

    vertices = sorted(plain.condensation.graph.vertices(), key=str)[:30]
    pairs = [(s, t) for s in vertices for t in vertices]
    expected = [plain.query(s, t) for s, t in pairs]

    results: list[list] = [None] * READERS

    def reader(idx: int) -> None:
        chunks = []
        for start in range(0, len(pairs), 100):
            chunks.extend(service.query_batch(pairs[start:start + 100]))
        results[idx] = chunks

    threads = [threading.Thread(target=reader, args=(i,))
               for i in range(READERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)

    for idx in range(READERS):
        assert results[idx] == expected, f"reader {idx} diverged"
    # Eight readers over identical pairs: the cache must have been hot.
    assert service.cache.stats()["hit_rate"] > 0.5


def test_waiting_reader_is_answered_before_a_write_burst_ends():
    # A reader that queues behind a run of back-to-back one-op writes
    # must get in at the next write release, not after the whole run:
    # the readers waiting when a writer releases go before the next
    # writer.  So a reader querying in a loop is answered about once per
    # op while the burst runs (a writer-preferring lock answers it once,
    # after the last op).
    graph = random_dag(400, 1600, seed=31)
    trace = generate_trace(graph, 60, seed=32, query_fraction=0.0)
    mutations = [UpdateOp.from_trace_op(op) for op in trace]
    vertices = list(graph.vertices())
    service = ReachabilityService(graph, cache_size=0)
    op_done: list[float] = []
    writing = threading.Event()
    finished = threading.Event()
    answered: list[float] = []

    def writer() -> None:
        for op in mutations:
            service.apply(op)
            op_done.append(time.perf_counter())
            writing.set()
        finished.set()

    def reader() -> None:
        writing.wait(timeout=60)
        while not finished.is_set():
            service.query(vertices[0], vertices[1])
            answered.append(time.perf_counter())

    threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert len(op_done) == len(mutations)
    during = sum(1 for t in answered if t < op_done[-1])
    assert during >= len(mutations) // 2, (
        f"reader answered {during} times during a {len(mutations)}-op, "
        f"{op_done[-1] - op_done[0]:.3f}s burst"
    )
