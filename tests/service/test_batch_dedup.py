"""Deduplication guarantees of ``query_batch`` under concurrent submitters.

The contract the network batcher builds on: within one ``query_batch``
call, each distinct pair probes the index at most once and every
duplicate fans out the same answer; with the epoch-stamped cache on,
at most one probe per distinct pair *per epoch* across calls.
"""

import threading

import pytest

from repro.graph.generators import random_dag
from repro.graph.traversal import bidirectional_reachable
from repro.service.server import ReachabilityService
from repro.core.ops import UpdateOp


def make_service(dag, **kwargs):
    return ReachabilityService(dag.copy(), **kwargs)


def install_probe_counter(service):
    """Count index probes by wrapping the instance's batch query method.

    Every pair handed to ``query_many`` is one probe.
    """
    counts = {}
    lock = threading.Lock()
    real_query_many = service._index.query_many

    def counting_query_many(pairs):
        pairs = list(pairs)
        with lock:
            for pair in pairs:
                counts[pair] = counts.get(pair, 0) + 1
        return real_query_many(pairs)

    service._index.query_many = counting_query_many
    return counts


@pytest.fixture(scope="module")
def dag():
    return random_dag(60, 150, seed=23)


class TestPerBatchDedup:
    """cache_size=0 isolates the per-call dedup from the cache."""

    def test_duplicates_probe_once_per_call(self, dag):
        service = make_service(dag, cache_size=0)
        counts = install_probe_counter(service)
        pairs = [(0, 10), (10, 20), (0, 10), (0, 10), (10, 20), (5, 5)]
        answers = service.query_batch(pairs)
        assert answers == [
            bidirectional_reachable(dag, s, t) for s, t in pairs
        ]
        assert counts == {(0, 10): 1, (10, 20): 1, (5, 5): 1}

    def test_concurrent_submitters_probe_distinct_per_call(self, dag):
        service = make_service(dag, cache_size=0)
        counts = install_probe_counter(service)
        per_thread = {
            "a": [(0, 10), (10, 20), (0, 10)],
            "b": [(10, 20), (20, 30), (10, 20), (20, 30)],
            "c": [(30, 40), (0, 10), (30, 40)],
        }
        results = {}
        errors = []
        barrier = threading.Barrier(len(per_thread))

        def submit(name, pairs):
            try:
                barrier.wait()
                for _ in range(5):
                    results[name] = service.query_batch(pairs)
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=submit, args=item)
            for item in per_thread.items()
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors
        # Fan-out: each caller sees its own order, duplicates included.
        for name, pairs in per_thread.items():
            assert results[name] == [
                bidirectional_reachable(dag, s, t) for s, t in pairs
            ]
        # Without a cache, each of the 5 calls per thread probes its
        # *distinct* pairs exactly once: total per pair == number of
        # calls whose batch contains it.
        expected = {}
        for pairs in per_thread.values():
            for pair in set(pairs):
                expected[pair] = expected.get(pair, 0) + 5
        assert counts == expected


class TestPerEpochDedup:
    """With the cache on, one probe per distinct pair per epoch."""

    def test_concurrent_repeats_probe_once_total(self, dag):
        service = make_service(dag, cache_size=4096)
        # Warm every pair once (sequentially — concurrent *misses* may
        # race to probe; the guarantee across threads is per-epoch only
        # after a pair is cached, which the network batcher serializes).
        pairs = [(i, i + 15) for i in range(0, 40, 5)]
        service.query_batch(pairs)
        counts = install_probe_counter(service)

        errors = []
        barrier = threading.Barrier(4)

        def submit():
            try:
                barrier.wait()
                for _ in range(10):
                    service.query_batch(pairs)
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors
        assert counts == {}, f"cached pairs re-probed: {counts}"

    def test_epoch_bump_invalidates_exactly_once(self, dag):
        service = make_service(dag, cache_size=4096)
        pairs = [(0, 10), (10, 20), (20, 30)]
        service.query_batch(pairs)
        counts = install_probe_counter(service)

        service.apply(UpdateOp.insert_vertex("bump"))
        assert service.epoch == 1

        service.query_batch(pairs + pairs)  # duplicates again
        assert counts == {pair: 1 for pair in pairs}
        service.query_batch(pairs)  # same epoch: all cache hits
        assert counts == {pair: 1 for pair in pairs}
