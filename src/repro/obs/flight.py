"""Flight recorder: a ring buffer of metric snapshots for post-mortems.

A Prometheus scrape tells you the system *is* degraded; it rarely tells
you what the ten seconds before looked like, and after a crash there is
no scrape at all.  The flight recorder keeps that history in-process: a
background thread snapshots the shared
:class:`~repro.obs.registry.MetricRegistry` every ``interval`` seconds
into a bounded ring (``collections.deque(maxlen=...)`` — appends are
atomic under the GIL, so writers never block readers and readers never
block writers), and :meth:`FlightRecorder.dump` serializes the whole
ring as a JSONL timeline.

The serving layer wires dumps to the moments that need a post-mortem:
degraded-mode entry (an audit failure, a failed update kernel, an
operator call), recovery, and SIGQUIT (the operator's "tell me what you
were doing" signal — see ``repro serve --flight-dir``).  Markers (:meth:`note`) interleave those trigger events
with the periodic snapshots so the timeline reads causally: *snapshots …
marker: degraded … snapshots*.

Dump format: the first line is a header
``{"kind": "dump", "reason": ..., "ts": ...}``; each following line is
one ring entry, oldest first — either
``{"kind": "snapshot", "ts": ..., "metrics": {...}}`` or
``{"kind": "marker", "ts": ..., "event": ..., "attrs": {...}}``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Optional, Union

from .registry import MetricRegistry

__all__ = ["FlightRecorder"]

PathLike = Union[str, Path]


class FlightRecorder:
    """Periodic registry snapshots in a bounded, lock-free ring.

    Parameters
    ----------
    registry:
        The :class:`MetricRegistry` to snapshot (normally the service's
        shared one, so snapshots carry service, cache, net and WAL
        metrics together).
    capacity:
        Ring size: how many snapshots/markers the timeline retains.
    interval:
        Seconds between periodic snapshots once :meth:`start` is called.
    dump_dir:
        Where :meth:`auto_dump` writes timelines (``flight-<reason>-<n>
        .jsonl``).  ``None`` means auto-dump only records a marker.
    """

    def __init__(
        self,
        registry: MetricRegistry,
        *,
        capacity: int = 256,
        interval: float = 1.0,
        dump_dir: Optional[PathLike] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.registry = registry
        self.capacity = capacity
        self.interval = interval
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self._ring: deque = deque(maxlen=capacity)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._dump_lock = threading.Lock()
        self._dump_count = 0
        self.ticks = 0
        self.dumps = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def tick(self) -> dict:
        """Take one registry snapshot now and append it to the ring."""
        entry = {
            "kind": "snapshot",
            "ts": time.time(),
            "metrics": self.registry.snapshot(),
        }
        self._ring.append(entry)
        self.ticks += 1
        return entry

    def note(self, event: str, /, **attrs) -> None:
        """Append a marker entry (a named trigger point) to the ring."""
        self._ring.append(
            {"kind": "marker", "ts": time.time(), "event": event,
             "attrs": attrs}
        )

    def snapshots(self) -> list[dict]:
        """A stable copy of the ring, oldest entry first."""
        return list(self._ring)

    # ------------------------------------------------------------------
    # The background sampler
    # ------------------------------------------------------------------

    def start(self) -> "FlightRecorder":
        """Launch the periodic sampler thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="flight-recorder", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the sampler thread (the ring stays readable)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.tick()
            except Exception:  # noqa: BLE001 - telemetry must not crash serving
                self.note("flight.tick_error")

    # ------------------------------------------------------------------
    # Dumping
    # ------------------------------------------------------------------

    def dump(self, path: PathLike, reason: str) -> Path:
        """Write the current timeline (plus one fresh snapshot) to *path*."""
        self.tick()  # the dump moment itself belongs in the timeline
        entries = self.snapshots()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._dump_lock:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(
                    json.dumps(
                        {"kind": "dump", "reason": reason, "ts": time.time(),
                         "entries": len(entries)},
                        separators=(",", ":"),
                    )
                    + "\n"
                )
                for entry in entries:
                    fh.write(
                        json.dumps(entry, default=str, separators=(",", ":"))
                        + "\n"
                    )
            self.dumps += 1
        return path

    def auto_dump(self, reason: str, /, **attrs) -> Optional[Path]:
        """Marker + dump into :attr:`dump_dir` (marker only when unset).

        *reason* is positional-only so callers can attach a ``reason=``
        attribute to the marker (e.g. why degraded mode tripped) without
        colliding with the dump's own reason.

        This is the hook the service calls on degraded-mode entry and
        recovery, and the SIGQUIT handler calls from the
        CLI.  Never raises: a failing post-mortem dump must not take
        down the serving path it is documenting.
        """
        self.note(reason, **attrs)
        if self.dump_dir is None:
            return None
        with self._dump_lock:
            self._dump_count += 1
            count = self._dump_count
        safe = reason.replace("/", "_").replace(".", "-")
        target = self.dump_dir / f"flight-{safe}-{count:04d}.jsonl"
        try:
            return self.dump(target, reason)
        except OSError:
            return None

    def __enter__(self) -> "FlightRecorder":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(capacity={self.capacity}, "
            f"interval={self.interval}, depth={len(self._ring)})"
        )
