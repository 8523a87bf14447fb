"""Observability: unified metric registry, span tracing, exporters.

The paper's claims are cost claims — how many candidate levels an
insertion sweeps (Algorithm 3), how large a deletion's repair frontier
is (Algorithm 4), how fast a reduction round converges (Section 6).
This subpackage makes those costs observable end to end:

* :mod:`repro.obs.registry` — :class:`MetricRegistry`, one thread-safe
  home for counters, gauges, :class:`LatencyHistogram` and
  :class:`RunningStats` — the only place the serving stack records its
  state;
* :mod:`repro.obs.trace` — nestable spans and point events with a
  near-zero-cost disabled path and an optional :class:`JsonlSink`;
  the core algorithms are instrumented with it;
* :mod:`repro.obs.export` — Prometheus text exposition and JSON
  renderers over any registry (`repro metrics`, ``--metrics-out``);
* :mod:`repro.obs.slowlog` — the threshold/sample-gated slow-query log
  the network front end writes per-request timing breakdowns into;
* :mod:`repro.obs.flight` — the flight recorder, a bounded ring of
  periodic registry snapshots dumped on degraded-mode entry (a failed
  update kernel among its reasons), recovery, and SIGQUIT;
* :mod:`repro.obs.health` — live index-health introspection
  (label-size distribution, order quality, scratch high-water marks,
  WAL lag, checkpoint age) behind the ``health`` wire op and CLI.

Metric names, the span taxonomy and the JSONL schema are documented in
``docs/observability.md``.
"""

from . import trace
from .export import (
    render_json,
    render_prometheus,
    render_prometheus_snapshot,
    write_metrics,
)
from .flight import FlightRecorder
from .health import bind_health_gauges, collect_health, render_health
from .registry import (
    BUCKET_BOUNDS,
    Counter,
    Gauge,
    LatencyHistogram,
    MetricRegistry,
    RunningStats,
)
from .slowlog import SlowQueryLog, aggregate_slowlog, read_slowlog
from .trace import JsonlSink, new_trace_id

__all__ = [
    "trace",
    "MetricRegistry",
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "RunningStats",
    "BUCKET_BOUNDS",
    "JsonlSink",
    "new_trace_id",
    "SlowQueryLog",
    "read_slowlog",
    "aggregate_slowlog",
    "FlightRecorder",
    "collect_health",
    "bind_health_gauges",
    "render_health",
    "render_prometheus",
    "render_prometheus_snapshot",
    "render_json",
    "write_metrics",
]
