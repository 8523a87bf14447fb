"""The unified metric registry: counters, gauges, histograms, stats.

Every telemetry number in the system — the serving layer's query-latency
percentiles, the core's per-operation span durations, the cache's
hit-rate — lives in (or is readable through) one
:class:`MetricRegistry`, so a single :meth:`MetricRegistry.snapshot`
covers the whole stack and a single exporter call
(:func:`repro.obs.export.render_prometheus`) serializes it.

Four instrument kinds, each thread-safe on its own internal mutex:

* :class:`Counter` — a monotonically increasing integer (``incr``);
* :class:`Gauge` — a last-write-wins number (``set``);
* :class:`LatencyHistogram` — geometric-bucket duration recorder with
  one-bucket-accurate percentiles;
* :class:`RunningStats` — count/mean/min/max of an arbitrary numeric
  stream.

Instruments are created on first use (``registry.counter(name)`` is
get-or-create) and a name is permanently bound to its kind — asking for
the same name as a different kind raises, which is what turns the old
"flat dict merge" key-collision hazard into a loud error.  For values
owned by another component (e.g. the cache's hit counters), register a
zero-argument callable with :meth:`MetricRegistry.register_callback`;
it is invoked at snapshot/export time and rendered as a gauge.

Metric names are dotted lowercase paths (``service.query_latency``,
``span.tol.insert``); the Prometheus exporter maps dots to underscores.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections.abc import Callable
from typing import Optional

__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "RunningStats",
    "MetricRegistry",
]

#: Geometric bucket upper bounds for latencies, in seconds: 1 µs up to
#: ~67 s doubling each step; anything slower lands in a final overflow
#: bucket.  26 buckets cover every rate this pure-Python index can hit.
BUCKET_BOUNDS = tuple(1e-6 * 2**i for i in range(26))


class Counter:
    """A thread-safe monotonically increasing integer."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def incr(self, amount: int = 1) -> None:
        """Add *amount* (>= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """Current count."""
        with self._lock:
            return self._value

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.value})"


class Gauge:
    """A thread-safe last-write-wins number."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value: float = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        """Adjust the gauge by *delta* (gauges may go down)."""
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        """Current value."""
        with self._lock:
            return self._value

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.value})"


class LatencyHistogram:
    """A fixed-bucket geometric histogram of durations in seconds.

    Thread-safe; all mutation happens under an internal mutex.  Quantiles
    are upper bounds of the containing bucket, i.e. conservative to within
    one power of two.
    """

    __slots__ = ("_lock", "_counts", "_count", "_sum", "_max")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = [0] * (len(BUCKET_BOUNDS) + 1)  # +1 = overflow bucket
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def record(self, seconds: float) -> None:
        """Add one observation."""
        idx = bisect_left(BUCKET_BOUNDS, seconds)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += seconds
            if seconds > self._max:
                self._max = seconds

    @property
    def count(self) -> int:
        """Number of observations."""
        with self._lock:
            return self._count

    @property
    def mean(self) -> Optional[float]:
        """Mean of the observations, or ``None`` if there are none."""
        with self._lock:
            return self._sum / self._count if self._count else None

    def quantile(self, q: float) -> Optional[float]:
        """Estimated *q*-quantile (0 < q <= 1), or ``None`` when empty.

        Returns the upper bound of the bucket containing the quantile
        rank; observations beyond the last bound report the maximum seen.
        """
        if not 0 < q <= 1:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> Optional[float]:
        if not self._count:
            return None
        rank = q * self._count
        seen = 0
        for idx, bucket in enumerate(self._counts):
            seen += bucket
            if seen >= rank:
                if idx < len(BUCKET_BOUNDS):
                    return min(BUCKET_BOUNDS[idx], self._max)
                return self._max
        return self._max  # pragma: no cover - rank <= count always hits

    def snapshot(self) -> dict:
        """``{count, mean, p50, p95, p99, max}`` with seconds as values.

        The whole snapshot is produced under *one* lock acquisition, so
        the fields are mutually consistent even while other threads keep
        recording (the old per-field reads could tear: a ``count`` from
        before a burst paired with a ``p99`` from after it).
        """
        with self._lock:
            count = self._count
            return {
                "count": count,
                "mean": self._sum / count if count else None,
                "p50": self._quantile_locked(0.50),
                "p95": self._quantile_locked(0.95),
                "p99": self._quantile_locked(0.99),
                "max": self._max if count else None,
            }

    def cumulative_buckets(self) -> tuple[list[tuple[float, int]], int, float]:
        """``([(upper_bound, cumulative_count), ...], count, sum)``.

        Prometheus histogram exposition needs cumulative bucket counts;
        the final entry is the ``+Inf`` overflow bucket (bound
        ``float("inf")``).  Taken under one lock acquisition.
        """
        with self._lock:
            buckets: list[tuple[float, int]] = []
            cumulative = 0
            for bound, n in zip(BUCKET_BOUNDS, self._counts):
                cumulative += n
                buckets.append((bound, cumulative))
            cumulative += self._counts[-1]
            buckets.append((float("inf"), cumulative))
            return buckets, self._count, self._sum

    def __repr__(self) -> str:
        return f"{type(self).__name__}(count={self.count}, mean={self.mean})"


class RunningStats:
    """Count / mean / min / max of a stream of numbers (thread-safe)."""

    __slots__ = ("_lock", "_count", "_sum", "_min", "_max")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def record(self, value: float) -> None:
        """Add one observation."""
        with self._lock:
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def snapshot(self) -> dict:
        """``{count, mean, min, max}``; mean is ``None`` when empty."""
        with self._lock:
            return {
                "count": self._count,
                "mean": self._sum / self._count if self._count else None,
                "min": self._min,
                "max": self._max,
            }

    def __repr__(self) -> str:
        s = self.snapshot()
        return f"{type(self).__name__}(count={s['count']}, mean={s['mean']})"


class MetricRegistry:
    """A thread-safe, get-or-create store of named instruments.

    One registry per "deployment unit": :class:`ReachabilityService`
    creates (or adopts) one and the trace layer can be pointed at the
    same instance, so serving metrics and core-algorithm telemetry land
    in a single exportable snapshot.

    Examples
    --------
    >>> reg = MetricRegistry()
    >>> reg.counter("service.queries").incr(3)
    >>> reg.counter("service.queries").value
    3
    >>> reg.histogram("service.query_latency").record(2e-6)
    >>> sorted(reg.snapshot())
    ['counters', 'gauges', 'histograms', 'stats']
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, LatencyHistogram] = {}
        self._stats: dict[str, RunningStats] = {}
        self._callbacks: dict[str, Callable[[], object]] = {}

    # ------------------------------------------------------------------
    # Get-or-create accessors
    # ------------------------------------------------------------------

    def _get_or_create(self, table: dict, name: str, factory):
        with self._lock:
            instrument = table.get(name)
            if instrument is None:
                self._check_unbound(name, table)
                instrument = table[name] = factory()
            return instrument

    def _check_unbound(self, name: str, target: dict) -> None:
        for kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
            ("stats", self._stats),
            ("callback", self._callbacks),
        ):
            if table is not target and name in table:
                raise ValueError(
                    f"metric name {name!r} is already bound to a {kind}"
                )

    def counter(self, name: str) -> Counter:
        """The counter named *name*, created at zero on first use."""
        return self._get_or_create(self._counters, name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge named *name*, created at zero on first use."""
        return self._get_or_create(self._gauges, name, Gauge)

    def histogram(self, name: str) -> LatencyHistogram:
        """The latency histogram named *name*, created empty on first use."""
        return self._get_or_create(self._histograms, name, LatencyHistogram)

    def stats(self, name: str) -> RunningStats:
        """The running-stats recorder named *name*."""
        return self._get_or_create(self._stats, name, RunningStats)

    def register_callback(self, name: str, fn: Callable[[], object]) -> None:
        """Publish a value owned elsewhere (rendered as a gauge).

        *fn* is called with no arguments at snapshot/export time; a
        ``None`` return means "no value yet" and is skipped by the
        Prometheus exporter.  Re-registering a name replaces the
        callback (components may be rebuilt), but a name bound to a
        real instrument cannot be shadowed.
        """
        with self._lock:
            self._check_unbound(name, self._callbacks)
            self._callbacks[name] = fn

    # ------------------------------------------------------------------
    # Convenience mutators
    # ------------------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        """``counter(name).incr(amount)``."""
        self.counter(name).incr(amount)

    def observe(self, name: str, value: float) -> None:
        """``stats(name).record(value)``."""
        self.stats(name).record(value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def histograms(self) -> dict[str, LatencyHistogram]:
        """A shallow copy of the name -> histogram table.

        The Prometheus exporter uses this to reach the raw cumulative
        buckets, which :meth:`snapshot` deliberately summarizes away.
        """
        with self._lock:
            return dict(self._histograms)

    def names(self) -> list[str]:
        """Every registered metric name, sorted."""
        with self._lock:
            return sorted(
                [
                    *self._counters,
                    *self._gauges,
                    *self._histograms,
                    *self._stats,
                    *self._callbacks,
                ]
            )

    def snapshot(self) -> dict:
        """Everything, as one nested plain dict.

        Shape: ``{"counters": {name: int}, "gauges": {name: number},
        "histograms": {name: hist.snapshot()}, "stats":
        {name: stats.snapshot()}}``.  Callback values appear under
        ``gauges``.  Instrument snapshots are each internally
        consistent (one lock hold per instrument); the registry-level
        composition is not a global atomic cut — no reader needs one.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            stats = dict(self._stats)
            callbacks = dict(self._callbacks)
        gauge_values: dict[str, object] = {
            name: g.value for name, g in gauges.items()
        }
        for name, fn in callbacks.items():
            gauge_values[name] = fn()
        return {
            "counters": {name: c.value for name, c in counters.items()},
            "gauges": gauge_values,
            "histograms": {name: h.snapshot() for name, h in histograms.items()},
            "stats": {name: s.snapshot() for name, s in stats.items()},
        }

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"{type(self).__name__}("
                f"counters={len(self._counters)}, gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)}, stats={len(self._stats)}, "
                f"callbacks={len(self._callbacks)})"
            )
