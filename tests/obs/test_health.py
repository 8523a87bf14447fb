"""Unit tests for index-health introspection.

``labeling_health`` is pinned against a hand-checkable chain graph;
``collect_health`` and ``bind_health_gauges`` run over a real
:class:`ReachabilityService`, with and without a durability directory.
"""

import pytest

from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.obs.health import (
    bind_health_gauges,
    collect_health,
    labeling_health,
    render_health,
)
from repro.obs.registry import MetricRegistry
from repro.service.durability import DurabilityManager
from repro.service.server import ReachabilityService
from repro.core.ops import UpdateOp


def chain(n=6):
    return DiGraph(edges=[(i, i + 1) for i in range(n - 1)])


class TestLabelingHealth:
    def test_distribution_and_total(self):
        service = ReachabilityService(chain())
        health = labeling_health(service._index.tol.labeling)
        labels = health["labels"]
        for side in ("in", "out"):
            assert set(labels[side]) == {"mean", "p50", "p95", "max"}
            assert labels[side]["max"] >= labels[side]["p95"] >= 0
        # A 6-chain is fully reachable end to end: pruned labels are
        # sparse but never empty overall.
        assert health["total_labels"] > 0
        n = chain().num_vertices
        assert labels["in"]["mean"] <= labels["in"]["max"]
        assert health["total_labels"] <= 2 * n * n  # trivial upper bound

    def test_decile_coverage_sums_to_one(self):
        service = ReachabilityService(random_dag(60, 180, seed=3))
        health = labeling_health(service._index.tol.labeling)
        coverage = health["order"]["decile_coverage"]
        assert len(coverage) == 10
        assert sum(coverage) == pytest.approx(1.0, abs=1e-4)
        assert all(c >= 0.0 for c in coverage)

    def test_quality_in_unit_interval_and_front_loaded(self):
        service = ReachabilityService(random_dag(60, 180, seed=3))
        health = labeling_health(service._index.tol.labeling)
        quality = health["order"]["quality"]
        assert 0.0 <= quality <= 1.0
        # TOL's whole point: labels reference top-ranked hubs, so a
        # butterfly order must beat the uniform-reference score of 0.5.
        assert quality > 0.5

    def test_bytes_cover_the_label_payload(self):
        service = ReachabilityService(random_dag(60, 180, seed=3))
        health = labeling_health(service._index.tol.labeling)
        # Each label is one 4-byte id in an array('i'), plus the
        # array's own header.
        assert health["label_bytes"] >= 4 * health["total_labels"]
        assert health["holder_bytes"] > 0

    def test_empty_labeling(self):
        service = ReachabilityService(DiGraph())
        health = labeling_health(service._index.tol.labeling)
        assert health["total_labels"] == 0
        assert health["order"]["quality"] == 0.0
        assert health["order"]["decile_coverage"] == [0.0] * 10
        assert health["labels"]["in"]["mean"] == 0.0


class TestCollectHealth:
    def test_payload_without_durability(self):
        service = ReachabilityService(chain(), cache_size=16)
        payload = collect_health(service)
        assert payload["epoch"] == 0
        assert payload["degraded"] is False
        assert payload["wal"] is None
        index = payload["index"]
        assert index["num_vertices"] == 6
        assert index["num_edges"] == 5
        assert "stale" not in index
        # Scratch is lazy: None on a read-only index, populated after
        # the first update forces the kernels to allocate it.
        assert index["scratch"] is None
        service.apply(UpdateOp.insert_edge(0, 2))
        scratch = collect_health(service)["index"]["scratch"]
        assert scratch is not None and scratch["capacity"] >= 0

    def test_payload_with_durability(self, tmp_path):
        durability = DurabilityManager(tmp_path, fsync="never")
        service = ReachabilityService(chain(), durability=durability)
        service.apply(UpdateOp.insert_vertex("x"))
        payload = collect_health(service)
        wal = payload["wal"]
        assert wal["last_seq"] >= 1
        assert wal["lag_ops"] == wal["last_seq"] - wal["checkpointed_seq"]
        assert wal["lag_bytes"] > 0
        assert wal["checkpoints"] >= 1  # seed checkpoint of the base graph
        assert wal["checkpoint_age_s"] >= 0.0

    def test_wedged_writer_degrades_to_stale(self):
        service = ReachabilityService(chain())
        service._rwlock.acquire_write()  # pose as a stuck writer
        try:
            payload = collect_health(service)  # try-lock times out inside
        finally:
            service._rwlock.release_write()
        assert payload["index"]["stale"] is True
        assert "labels" not in payload["index"]
        # The lock-free fields still arrive.
        assert payload["epoch"] == 0

    def test_health_method_on_service(self):
        service = ReachabilityService(chain())
        assert service.health()["index"]["num_vertices"] == 6


class TestBindHealthGauges:
    def test_gauges_land_in_snapshot(self):
        registry = MetricRegistry()
        service = ReachabilityService(chain(), registry=registry)
        bind_health_gauges(registry, service)
        gauges = registry.snapshot()["gauges"]
        assert gauges["health.order.quality"] > 0.0
        assert gauges["health.labels.in_max"] >= 1
        assert gauges["health.index.label_bytes"] >= 4 * service.size()
        assert gauges["health.index.holder_bytes"] > 0
        assert gauges["health.wal.lag_ops"] is None  # no durability

    def test_ttl_caches_the_walk(self, monkeypatch):
        registry = MetricRegistry()
        service = ReachabilityService(chain(), registry=registry)
        calls = {"n": 0}
        real = collect_health

        def counting(svc):
            calls["n"] += 1
            return real(svc)

        monkeypatch.setattr("repro.obs.health.collect_health", counting)
        bind_health_gauges(registry, service, ttl=60.0)
        registry.snapshot()
        registry.snapshot()
        # 11 gauges x 2 snapshots, but one collect within the TTL.
        assert calls["n"] == 1


class TestRenderHealth:
    def test_renders_every_section(self, tmp_path):
        durability = DurabilityManager(tmp_path, fsync="never")
        service = ReachabilityService(
            chain(), cache_size=16, durability=durability
        )
        text = render_health(collect_health(service))
        assert "epoch 0" in text
        assert "|V|=6" in text
        assert "Lin " in text and "Lout" in text
        assert "order quality" in text
        index = collect_health(service)["index"]
        assert f"labels {index['label_bytes']:,}" in text
        assert f"holders {index['holder_bytes']:,}" in text
        assert "wal: lag" in text
        assert "cache:" in text

    def test_renders_last_publish_split(self):
        from repro.shm.publisher import SnapshotPublisher

        service = ReachabilityService(chain())
        publisher = SnapshotPublisher(service)
        try:
            publisher.publish()
            service.shm_publisher = publisher
            payload = collect_health(service)
            assert set(payload["snapshot"]["last_publish"]) == {
                "ms", "freeze_ms", "pack_ms",
            }
            text = render_health(payload)
        finally:
            publisher.close()
        assert "last publish" in text and "freeze" in text and "pack" in text

    def test_renders_stale_index(self):
        service = ReachabilityService(chain())
        payload = collect_health(service)
        payload["index"] = {"stale": True}
        assert "STALE" in render_health(payload)
