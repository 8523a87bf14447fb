"""Nestable span tracing with a near-zero-cost disabled path.

The core algorithms are instrumented with *spans* — named, timed,
attribute-carrying regions::

    from repro.obs import trace

    with trace.span("tol.insert", vertex="v17") as sp:
        ...
        sp.set("labels_added", added)

and *events* — timestamped point records for per-iteration telemetry
(one per Butterfly peeling level, one per reduction round)::

    trace.event("tol.build.level", k=k, v_k=len(residual), e_k=edges)

Tracing is **off by default** and the off path is designed to be
invisible in profiles: :func:`span` checks one attribute and returns a
shared no-op context manager; :func:`event` checks the same attribute
and returns.  The no-op span is *falsy* (``bool(sp) is False``), so
call sites can guard genuinely expensive attribute computation::

    with trace.span("tol.delete") as sp:
        if sp:  # only pay for labeling.size() when someone is watching
            before = labeling.size()

``benchmarks/bench_obs_overhead.py`` enforces the budget: with tracing
disabled, ``butterfly_build`` must stay within 3% of an uninstrumented
baseline.

When enabled (:func:`enable` / :func:`capture`), every finished span
lands in up to two places:

* a :class:`~repro.obs.registry.MetricRegistry` — duration into the
  histogram ``span.<name>``, each numeric attribute into the running
  stats ``span.<name>.<attr>`` (events use ``event.<name>`` counters and
  ``event.<name>.<attr>`` stats);
* a sink — any object with a ``write(dict)`` method, normally a
  :class:`JsonlSink`, receiving one structured record per span/event
  (see the JSONL schema in ``docs/observability.md``).

Spans nest: a per-thread stack tracks the active span, and each record
carries its parent's name (``"parent": null`` at top level).
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Optional, Union

from .registry import MetricRegistry

__all__ = [
    "span",
    "event",
    "active",
    "enable",
    "disable",
    "capture",
    "current_registry",
    "current_sink",
    "new_trace_id",
    "Span",
    "JsonlSink",
]


def new_trace_id() -> str:
    """Mint a compact request-scoped trace id (16 hex chars).

    Trace ids are minted once per request — by
    :class:`~repro.net.client.ReachabilityClient` normally, or at
    admission by the server for untraced peers — and carried through the
    wire envelope, the batching consumer, the slow-query log, the WAL
    and the kernel-failure events, so one grep correlates a client-visible
    reply with every server-side artifact it produced.  64 random bits:
    collision-free in practice, cheap to log, JSON-safe.
    """
    return os.urandom(8).hex()


class _State:
    """Module-level trace configuration (one attribute read on hot paths)."""

    __slots__ = ("enabled", "registry", "sink")

    def __init__(self) -> None:
        self.enabled = False
        self.registry: Optional[MetricRegistry] = None
        self.sink = None


_state = _State()
_stack = threading.local()  # .spans: list[str] — active span names


def _current_stack() -> list:
    spans = getattr(_stack, "spans", None)
    if spans is None:
        spans = _stack.spans = []
    return spans


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def __bool__(self) -> bool:
        return False

    def set(self, key: str, value) -> None:
        """Discard the attribute (tracing is off)."""

    def incr(self, key: str, amount: int = 1) -> None:
        """Discard the increment (tracing is off)."""


_NOOP = _NoopSpan()


class Span:
    """One live traced region; created by :func:`span`, never directly.

    Truthy (unlike the no-op span), so ``if sp:`` gates work that only
    matters when tracing is on.  Attributes set via :meth:`set` /
    :meth:`incr` are flushed on ``__exit__`` to the registry and sink
    captured at creation time.
    """

    __slots__ = ("name", "attrs", "_registry", "_sink", "_start", "_parent")

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self._registry = _state.registry
        self._sink = _state.sink
        self._start = 0.0
        self._parent: Optional[str] = None

    def set(self, key: str, value) -> None:
        """Attach (or overwrite) one attribute."""
        self.attrs[key] = value

    def incr(self, key: str, amount: int = 1) -> None:
        """Add *amount* to a numeric attribute (creating it at zero)."""
        self.attrs[key] = self.attrs.get(key, 0) + amount

    def __bool__(self) -> bool:
        return True

    def __enter__(self) -> "Span":
        stack = _current_stack()
        self._parent = stack[-1] if stack else None
        stack.append(self.name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._start
        stack = _current_stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        registry = self._registry
        if registry is not None:
            registry.histogram(f"span.{self.name}").record(duration)
            for key, value in self.attrs.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    registry.observe(f"span.{self.name}.{key}", value)
        sink = self._sink
        if sink is not None:
            sink.write(
                {
                    "ts": time.time(),
                    "kind": "span",
                    "name": self.name,
                    "parent": self._parent,
                    "dur_s": duration,
                    "attrs": self.attrs,
                }
            )
        return False

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, attrs={self.attrs!r})"


def span(name: str, **attrs) -> Union[Span, _NoopSpan]:
    """Open a traced region named *name* (use as a context manager).

    Returns the shared no-op span when tracing is disabled — one
    attribute check, no allocation.
    """
    if not _state.enabled:
        return _NOOP
    return Span(name, attrs)


def event(name: str, **attrs) -> None:
    """Record one point-in-time event (no duration).

    No-op when tracing is disabled.  When enabled: bumps the counter
    ``event.<name>``, records numeric attributes into the stats
    ``event.<name>.<attr>``, and writes one JSONL record to the sink.
    """
    if not _state.enabled:
        return
    registry = _state.registry
    if registry is not None:
        registry.incr(f"event.{name}")
        for key, value in attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                registry.observe(f"event.{name}.{key}", value)
    sink = _state.sink
    if sink is not None:
        stack = _current_stack()
        sink.write(
            {
                "ts": time.time(),
                "kind": "event",
                "name": name,
                "parent": stack[-1] if stack else None,
                "attrs": attrs,
            }
        )


def active() -> bool:
    """Is tracing currently enabled?"""
    return _state.enabled


def enable(
    registry: Optional[MetricRegistry] = None, sink=None
) -> MetricRegistry:
    """Turn tracing on, routing spans to *registry* and/or *sink*.

    Returns the registry in effect (a fresh one if none was passed and
    none was configured before).  Re-enabling replaces the previous
    destinations.  Spans already open keep the destinations they
    captured at creation.
    """
    if registry is None:
        registry = MetricRegistry()
    _state.registry = registry
    _state.sink = sink
    _state.enabled = True
    return registry


def disable() -> None:
    """Turn tracing off and drop the registry/sink references."""
    _state.enabled = False
    _state.registry = None
    _state.sink = None


def current_registry() -> Optional[MetricRegistry]:
    """The registry spans are recording into, or ``None``."""
    return _state.registry


def current_sink():
    """The sink spans are writing to, or ``None``."""
    return _state.sink


@contextmanager
def capture(registry: Optional[MetricRegistry] = None, sink=None):
    """Enable tracing for a ``with`` block; yields the registry.

    Restores the previous trace configuration on exit (so tests and
    CLI commands can nest without trampling a caller's setup).
    """
    previous = (_state.enabled, _state.registry, _state.sink)
    registry = enable(registry, sink)
    try:
        yield registry
    finally:
        _state.enabled, _state.registry, _state.sink = previous


class JsonlSink:
    """A thread-safe JSONL event sink over a path or file object.

    Each :meth:`write` serializes one record as a single JSON line.
    Non-JSON-serializable attribute values are stringified rather than
    raising — telemetry must never take down the operation it observes.

    Use as a context manager, or call :meth:`close` (closing is a no-op
    for file objects the sink does not own).
    """

    def __init__(self, target) -> None:
        self._lock = threading.Lock()
        if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
            self._file = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self._file = target
            self._owns = False
        self.records_written = 0

    def write(self, record: dict) -> None:
        """Append one record as a JSON line."""
        line = json.dumps(record, default=str, separators=(",", ":"))
        with self._lock:
            self._file.write(line + "\n")
            self.records_written += 1

    def close(self) -> None:
        """Flush and close the file if the sink opened it."""
        with self._lock:
            if self._owns and not self._file.closed:
                self._file.close()
            elif not self._owns and not getattr(self._file, "closed", False):
                self._file.flush()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(records_written={self.records_written})"
        )
