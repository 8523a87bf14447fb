"""Tests for serving metrics: histograms, running stats, the service's
instruments in its registry."""

import threading

import pytest

from repro.core.ops import UpdateOp
from repro.graph.digraph import DiGraph
from repro.obs.registry import LatencyHistogram, MetricRegistry, RunningStats
from repro.service.server import ReachabilityService


class TestLatencyHistogram:
    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.mean is None
        assert hist.quantile(0.5) is None
        snap = hist.snapshot()
        assert snap["count"] == 0 and snap["p99"] is None

    def test_mean_and_max(self):
        hist = LatencyHistogram()
        for v in (1e-6, 2e-6, 3e-6):
            hist.record(v)
        assert hist.count == 3
        assert hist.mean == pytest.approx(2e-6)
        assert hist.snapshot()["max"] == pytest.approx(3e-6)

    def test_quantiles_are_bucket_upper_bounds(self):
        hist = LatencyHistogram()
        for _ in range(99):
            hist.record(1.5e-6)  # bucket (1µs, 2µs]
        hist.record(0.9)  # one slow outlier
        assert hist.quantile(0.5) <= 2e-6
        assert hist.quantile(0.99) <= 2e-6
        assert hist.quantile(1.0) >= 0.9 / 2  # within one power of two

    def test_quantile_never_exceeds_max(self):
        hist = LatencyHistogram()
        hist.record(1.2e-6)
        assert hist.quantile(0.5) == pytest.approx(1.2e-6)

    def test_overflow_bucket_quantiles_report_max(self):
        # Observations beyond the last bucket bound (~67s) land in the
        # overflow bucket; every quantile that falls there must report
        # the true maximum, not a bucket bound.
        hist = LatencyHistogram()
        hist.record(100.0)
        hist.record(250.0)
        assert hist.quantile(0.5) == pytest.approx(250.0)
        assert hist.quantile(1.0) == pytest.approx(250.0)
        assert hist.snapshot()["max"] == pytest.approx(250.0)

    def test_single_observation_all_quantiles_equal_it(self):
        hist = LatencyHistogram()
        hist.record(3.7e-5)
        for q in (0.01, 0.5, 0.95, 0.99, 1.0):
            assert hist.quantile(q) == pytest.approx(3.7e-5)

    def test_q_one_is_the_maximum(self):
        hist = LatencyHistogram()
        for v in (1e-6, 5e-5, 2e-3, 0.4):
            hist.record(v)
        assert hist.quantile(1.0) == pytest.approx(0.4)

    def test_snapshot_is_consistent_under_concurrent_records(self):
        # The snapshot is taken under one lock hold: count/mean/quantiles
        # must describe the same set of observations even while writers
        # race (the old per-field reads could tear).
        hist = LatencyHistogram()
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                hist.record(1e-5)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(200):
                snap = hist.snapshot()
                if snap["count"] == 0:
                    assert snap["mean"] is None and snap["max"] is None
                else:
                    # All observations are 1e-5: a torn read would show
                    # a mean inconsistent with the recorded value.
                    assert snap["mean"] == pytest.approx(1e-5)
                    assert snap["p50"] == pytest.approx(1e-5)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            LatencyHistogram().quantile(0.0)
        with pytest.raises(ValueError):
            LatencyHistogram().quantile(1.5)

    def test_concurrent_recording(self):
        hist = LatencyHistogram()

        def record_many():
            for _ in range(1000):
                hist.record(1e-5)

        threads = [threading.Thread(target=record_many) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert hist.count == 4000


class TestRunningStats:
    def test_empty(self):
        stats = RunningStats().snapshot()
        assert stats == {"count": 0, "mean": None, "min": None, "max": None}

    def test_accumulates(self):
        stats = RunningStats()
        for v in (4, 2, 6):
            stats.record(v)
        snap = stats.snapshot()
        assert snap["count"] == 3
        assert snap["mean"] == pytest.approx(4.0)
        assert (snap["min"], snap["max"]) == (2, 6)


class TestServiceMetrics:
    @staticmethod
    def service(registry=None):
        return ReachabilityService(
            DiGraph(edges=[("a", "b"), ("b", "c")]), registry=registry
        )

    def test_counters(self):
        service = self.service()
        queries = service.registry.counter("service.queries")
        assert queries.value == 0  # bound at construction
        service.query("a", "c")
        service.query_batch([("a", "b")] * 5)
        assert queries.value == 6

    def test_snapshot_shape(self):
        service = self.service()
        service.apply_batch([
            UpdateOp.insert_vertex("d"), UpdateOp.insert_vertex("e"),
        ])
        service.query("a", "c")
        snap = service.registry.snapshot()
        assert snap["counters"]["service.updates_applied"] == 2
        assert snap["histograms"]["service.query_latency"]["count"] == 1
        assert snap["stats"]["service.batch_size"]["max"] == 2
        assert "service.batch_apply_latency" in snap["histograms"]

    def test_counter_cannot_shadow_histogram(self):
        # A counter named like the query-latency histogram would shadow
        # it in a flat merge; the registry rejects the rebind instead.
        service = self.service()
        with pytest.raises(ValueError):
            service.registry.incr("service.query_latency")

    def test_shared_registry(self):
        registry = MetricRegistry()
        service = self.service(registry)
        for _ in range(3):
            service.query("a", "b")
        assert registry.snapshot()["counters"]["service.queries"] == 3
