"""Concurrent query-serving layer over the dynamic reachability indices.

The core package (:mod:`repro.core`) is deliberately single-threaded: the
paper's algorithms mutate shared label sets and an order-maintenance
structure in place, so unsynchronized concurrent access would corrupt the
index.  This subpackage adds the serving shell a production deployment
needs for the paper's mixed read/write regime (Section 8, "Experiments on
Dynamic Graphs"):

* :mod:`repro.service.concurrency` — a reader-writer lock that hands
  off between waiting readers and writers, and a monotonic epoch
  counter bumped on every successful update;
* :mod:`repro.service.cache` — a bounded LRU query cache whose entries
  are stamped with the epoch they were computed at, so one integer bump
  lazily invalidates the whole cache without scanning it;
* :mod:`repro.service.durability` — crash safety: a CRC-checksummed
  write-ahead log with torn-tail truncation, atomic checkpoints over
  :mod:`repro.core.serialize`, and the checkpoint-plus-WAL-suffix
  recovery path;
* :mod:`repro.service.faults` — deterministic fault injection (named
  crash points);
* :mod:`repro.service.server` — :class:`ReachabilityService`, the facade
  tying them together around a
  :class:`~repro.core.index.ReachabilityIndex`: one write path that
  validates, WAL-logs and applies each update request as one batch of
  :class:`~repro.core.ops.UpdateOp` values, one failure rule (an op
  the index rejects before its graph moved changed nothing; any other
  failed index kernel triggers a rebuild from that graph, the only
  copy of the served graph), degraded-mode BFS serving and the sampled
  Definition-1 self-audit.  Its counters and histograms
  live in one :class:`~repro.obs.registry.MetricRegistry`
  (:attr:`ReachabilityService.registry`).

See ``docs/service.md`` for the lock discipline and invalidation rules,
``docs/robustness.md`` for the crash-safety story,
``python -m repro serve-replay`` for a runnable multi-threaded driver,
and ``benchmarks/bench_service_mixed.py`` for throughput measurements.
"""

from ..core.ops import UpdateOp
from .cache import EpochLRUCache
from .concurrency import EpochCounter, RWLock
from .durability import (
    CheckpointStore,
    DurabilityManager,
    RecoveryReport,
    WriteAheadLog,
    recover_state,
)
from .faults import CRASH_POINTS, FaultInjector, InjectedCrash
from .server import ReachabilityService

__all__ = [
    "ReachabilityService",
    "RWLock",
    "EpochCounter",
    "EpochLRUCache",
    "UpdateOp",
    "WriteAheadLog",
    "CheckpointStore",
    "DurabilityManager",
    "RecoveryReport",
    "recover_state",
    "FaultInjector",
    "InjectedCrash",
    "CRASH_POINTS",
]
