"""Shared-memory snapshot plane for zero-copy multi-process serving.

One writer process owns the live :class:`~repro.service.server.
ReachabilityService`; N reader processes answer queries from an
immutable :class:`~repro.core.frozen.FrozenTOLIndex` attached over a
``multiprocessing.shared_memory`` segment.  Four pieces:

* :mod:`~repro.shm.control` — a tiny fixed-size control segment holding
  a seqlock-guarded ``(generation, epoch, data_len)`` triple, the
  process roster (owner/writer pids, respawn counters) plus one stats
  slot per worker;
* :mod:`~repro.shm.publisher` — writer side: freeze the live index
  under the read lock, pack it (TOLF bytes), copy into a fresh data
  segment, bump the control block, unlink retired segments after a
  grace period or once two newer ones have retired.  Attach mode re-binds a respawned writer to the
  surviving control block after failover;
* :mod:`~repro.shm.reader` — reader side: attach, re-attach when the
  generation advances, fall back to the last good snapshot when the
  writer is down, expose the current snapshot;
* :mod:`~repro.shm.janitor` — boot-time reaper for segment families
  whose owning process died without unlinking them.

See ``docs/scaling.md`` for the lifecycle and ``docs/robustness.md``
for the failure model.
"""

from .control import (
    ControlBlock,
    control_name,
    create_segment,
    pid_alive,
    segment_name,
    unlink_segment,
)
from .janitor import list_families, reap_orphans, scan_orphans, sweep_family
from .publisher import SnapshotPublisher
from .reader import AttachedSnapshot, SnapshotReader

__all__ = [
    "ControlBlock",
    "control_name",
    "create_segment",
    "pid_alive",
    "segment_name",
    "unlink_segment",
    "SnapshotPublisher",
    "SnapshotReader",
    "AttachedSnapshot",
    "list_families",
    "reap_orphans",
    "scan_orphans",
    "sweep_family",
]
