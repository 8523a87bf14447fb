"""Dotted metric namespaces on one registry, and snapshot-vs-mutation safety.

Two hazards pinned here: (1) subsystems sharing one registry under
their own dotted prefixes (``service.``, ``net.``) must compose — and a
name bound as one instrument kind must fail loudly when asked for as
another, not shadow silently; (2) taking a registry snapshot while
writer threads mutate every instrument kind must never raise or tear an
individual instrument's summary.
"""

import threading

import pytest

from repro.obs.registry import MetricRegistry


class TestPrefixes:
    def test_two_scopes_share_one_registry_without_clashes(self):
        registry = MetricRegistry()
        registry.incr("service.queries", 3)
        registry.incr("net.queries", 5)  # same leaf, different namespace
        assert registry.counter("service.queries").value == 3
        assert registry.counter("net.queries").value == 5
        counters = registry.snapshot()["counters"]
        assert counters["service.queries"] == 3
        assert counters["net.queries"] == 5

    def test_nested_prefix_is_not_a_collision(self):
        registry = MetricRegistry()
        # A name that is a dotted prefix of another is its own metric.
        registry.counter("service.cache")
        registry.histogram("service.cache.hits")
        registry.incr("service.cache", 2)
        assert registry.counter("service.cache").value == 2
        assert "service.cache.hits" in registry.snapshot()["histograms"]

    def test_same_name_different_kind_rejected(self):
        registry = MetricRegistry()
        registry.incr("service.query_latency")  # binds a counter
        with pytest.raises(ValueError, match="already bound to a counter"):
            registry.histogram("service.query_latency")

    def test_cross_scope_kind_collision_on_shared_registry(self):
        registry = MetricRegistry()
        registry.histogram("svc.latency")
        with pytest.raises(ValueError, match="already bound to a histogram"):
            registry.stats("svc.latency")

    def test_callback_cannot_shadow_instrument(self):
        registry = MetricRegistry()
        registry.incr("service.queries")
        with pytest.raises(ValueError):
            registry.register_callback("service.queries", lambda: 1)


class TestSnapshotVsMutation:
    def test_concurrent_snapshots_never_tear(self):
        registry = MetricRegistry()
        stop = threading.Event()
        errors = []

        def writer(seed):
            i = 0
            while not stop.is_set():
                registry.incr("svc.ops")
                registry.histogram("svc.latency").record(
                    (seed + i % 7) * 1e-4
                )
                registry.stats("svc.batch").record(i % 31)
                registry.gauge(f"w{seed}.depth").set(i)
                i += 1

        def reader():
            while not stop.is_set():
                try:
                    snap = registry.snapshot()
                    hist = snap["histograms"].get("svc.latency")
                    if hist and hist["count"]:
                        # Per-instrument consistency: the summary must be
                        # internally ordered even while records land.
                        assert hist["p50"] <= hist["p95"] <= hist["p99"]
                        assert hist["max"] >= hist["p99"]
                    stats = snap["stats"].get("svc.batch")
                    if stats and stats["count"]:
                        assert stats["min"] <= stats["mean"] <= stats["max"]
                    assert snap["counters"].get("svc.ops", 0) >= 0
                except Exception as exc:  # noqa: BLE001 - collected for the assert
                    errors.append(exc)
                    return

        threads = [
            threading.Thread(target=writer, args=(s,)) for s in range(3)
        ] + [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        stop.wait(0.4)
        stop.set()
        for t in threads:
            t.join()
        assert errors == []
        assert registry.counter("svc.ops").value > 0

    def test_concurrent_get_or_create_yields_one_instrument(self):
        registry = MetricRegistry()
        seen = []
        barrier = threading.Barrier(8)

        def grab():
            barrier.wait()
            seen.append(registry.histogram("svc.latency"))

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(h) for h in seen}) == 1

    def test_snapshot_during_callback_mutation(self):
        # Gauge callbacks run outside the registry lock; a callback that
        # itself touches the registry must not deadlock the snapshot.
        registry = MetricRegistry()
        registry.register_callback(
            "svc.depth", lambda: registry.counter("svc.ops").value
        )
        registry.incr("svc.ops", 7)
        assert registry.snapshot()["gauges"]["svc.depth"] == 7
