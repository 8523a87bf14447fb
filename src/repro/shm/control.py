"""The shared control block coordinating writer and reader processes.

A single small ``multiprocessing.shared_memory`` segment (one page) of
little-endian i64 cells, accessed through ``memoryview.cast("q")``:

======  =====================================================
cell    meaning
======  =====================================================
0       seqlock sequence (odd while a publish is in flight)
1       snapshot generation (names the data segment)
2       index epoch the snapshot was frozen at
3       exact pack length in bytes (attaches are page-rounded)
4       publish timestamp, ``time.time_ns()``
5       degraded flag mirrored from the writer service
6       number of reader workers (sizes the slot table)
7       shutdown flag (readers drain when set)
8       owner (supervisor) pid — the janitor's liveness probe
9       writer pid (0 while the writer is down or restarting)
10      worker respawns performed by the supervisor
11      writer respawns performed by the supervisor
======  =====================================================

Cells ``16 + i*8 ..`` form per-worker stats slots (pid, generation,
epoch, requests answered, attach timestamp, requests forwarded to the
writer).  Each slot has exactly one writing process, so slot stores are
plain racy i64 writes — aligned 8-byte stores are atomic on every
platform CPython runs on, and a stale read only skews a stats report.

The snapshot triple is the one multi-cell record read by many processes
while one process updates it, hence the seqlock: the publisher bumps the
sequence to odd, writes cells 1–4, bumps back to even; readers retry
while the sequence is odd or changed underneath them.

Python 3.8–3.12 registers *attached* segments with the resource tracker
too (bpo-38119), which would make the first reader to exit unlink
segments it does not own; :func:`attach_segment` unregisters after
attaching, leaving cleanup solely to the creating process.
"""

from __future__ import annotations

import os
import secrets
import time
from multiprocessing import resource_tracker, shared_memory

from ..errors import SnapshotUnavailableError

__all__ = [
    "ControlBlock",
    "attach_segment",
    "segment_name",
    "control_name",
    "new_base_name",
    "pid_alive",
    "MAX_WORKERS",
]

MAX_WORKERS = 64

_HEADER_CELLS = 16
_SLOT_CELLS = 8
_NUM_CELLS = _HEADER_CELLS + MAX_WORKERS * _SLOT_CELLS
CONTROL_SIZE = _NUM_CELLS * 8

_SEQ = 0
_GENERATION = 1
_EPOCH = 2
_DATA_LEN = 3
_PUBLISH_TS = 4
_DEGRADED = 5
_NUM_WORKERS = 6
_SHUTDOWN = 7
_OWNER_PID = 8
_WRITER_PID = 9
_WORKER_RESTARTS = 10
_WRITER_RESTARTS = 11

# Worker slot cell indices (relative to the slot base).
SLOT_PID = 0
SLOT_GENERATION = 1
SLOT_EPOCH = 2
SLOT_REQUESTS = 3
SLOT_ATTACH_TS = 4
SLOT_FORWARDED = 5
SLOT_SHED = 6


def new_base_name() -> str:
    """A collision-resistant base for this server's segment family."""
    return f"repro-{secrets.token_hex(4)}"


def pid_alive(pid: int) -> bool:
    """Whether *pid* names a live process (signal-0 probe)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, other user
        return True
    except OSError:  # pragma: no cover
        return False
    return True


def segment_name(base: str, generation: int) -> str:
    """Name of the data segment carrying snapshot *generation*."""
    return f"{base}-g{generation}"


def control_name(base: str) -> str:
    """Name of the control segment for segment family *base*."""
    return f"{base}-ctl"


def create_segment(name: str, size: int) -> shared_memory.SharedMemory:
    """Create a data segment whose cleanup is managed *explicitly*.

    The writer process creates snapshot segments, but the segment
    family outlives any one writer (failover respawns it), so the
    creating process's resource tracker must not adopt them: a killed
    or cleanly exiting writer would otherwise unlink the live snapshot
    out from under the readers still serving it.  Cleanup is explicit
    instead — the publisher unlinks retired generations, the
    supervisor sweeps the family at shutdown, and the boot-time
    janitor reaps anything a crashed server left behind.
    """
    shm = shared_memory.SharedMemory(name=name, create=True, size=size)
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker API is semi-private
        pass
    return shm


def unlink_segment(name: str) -> bool:
    """Unlink shared segment *name* without resource-tracker traffic.

    Counterpart of :func:`create_segment`: those segments were never
    registered with this process's tracker, and the segments the
    janitor reaps were registered with a *dead* process's tracker — in
    both cases ``SharedMemory.unlink()`` would send a bogus UNREGISTER
    that the tracker answers with a KeyError traceback on stderr.
    Returns whether the name existed.
    """
    posixshmem = getattr(shared_memory, "_posixshmem", None)
    if posixshmem is None:  # pragma: no cover - non-POSIX fallback
        try:
            seg = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return False
        seg.close()
        seg.unlink()
        return True
    try:
        posixshmem.shm_unlink(name if name.startswith("/") else "/" + name)
    except FileNotFoundError:
        return False
    return True


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting its cleanup.

    Counterpart of creating: the resource tracker otherwise believes
    every attaching process owns the segment (bpo-38119) and unlinks it
    when that process exits, yanking live snapshots out from under the
    sibling readers.
    """
    shm = shared_memory.SharedMemory(name=name)
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker API is semi-private
        pass
    return shm


class ControlBlock:
    """Typed accessor over the control segment (create or attach)."""

    def __init__(self, shm: shared_memory.SharedMemory, *, owner: bool) -> None:
        self._shm = shm
        self._owner = owner
        self._cells = shm.buf.cast("q")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, base: str, *, num_workers: int = 0) -> "ControlBlock":
        shm = shared_memory.SharedMemory(
            name=control_name(base), create=True, size=CONTROL_SIZE
        )
        block = cls(shm, owner=True)
        for i in range(_NUM_CELLS):
            block._cells[i] = 0
        block._cells[_NUM_WORKERS] = num_workers
        block._cells[_OWNER_PID] = os.getpid()
        return block

    @classmethod
    def attach(cls, name: str) -> "ControlBlock":
        return cls(attach_segment(name), owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self) -> None:
        # Release the cast view before closing the mapping, else mmap
        # close raises BufferError ("exported pointers exist").  A worker
        # slot view handed out by :meth:`worker_cells` also counts as an
        # export; if one is still alive, leave the mapping to process
        # exit rather than fail the shutdown path.
        self._cells.release()
        try:
            self._shm.close()
        except BufferError:
            pass

    def unlink(self) -> None:
        if self._owner:
            self._shm.unlink()

    # ------------------------------------------------------------------
    # Snapshot triple (seqlock)
    # ------------------------------------------------------------------

    def write_snapshot(
        self, generation: int, epoch: int, data_len: int, *, on_flip=None
    ) -> None:
        cells = self._cells
        cells[_SEQ] += 1  # odd: publish in flight
        if on_flip is not None:
            # Chaos hook: lets a fault injector kill the writer in the
            # narrowest window — sequence odd, triple half-written.
            on_flip()
        cells[_GENERATION] = generation
        cells[_EPOCH] = epoch
        cells[_DATA_LEN] = data_len
        cells[_PUBLISH_TS] = time.time_ns()
        cells[_SEQ] += 1  # even: stable

    def read_snapshot(self, *, stall_timeout: float = 2.0) -> tuple[int, int, int, int]:
        """Return a consistent ``(generation, epoch, data_len, ts_ns)``.

        Bounded: a publish normally holds the sequence odd for
        microseconds, so a sequence that stays odd (or keeps moving)
        for *stall_timeout* seconds means the publisher died mid-flip —
        spinning forever would hang every reader behind a writer crash.
        Raises :class:`~repro.errors.SnapshotUnavailableError` on
        stall; callers with a previously attached snapshot keep serving
        it, and the respawned writer repairs the seqlock on re-attach.
        """
        cells = self._cells
        deadline = None
        while True:
            seq = cells[_SEQ]
            if not seq & 1:
                record = (
                    cells[_GENERATION], cells[_EPOCH],
                    cells[_DATA_LEN], cells[_PUBLISH_TS],
                )
                if cells[_SEQ] == seq:
                    return record
            if deadline is None:
                deadline = time.monotonic() + stall_timeout
            elif time.monotonic() >= deadline:
                raise SnapshotUnavailableError(
                    f"seqlock stalled for {stall_timeout}s (sequence "
                    f"{cells[_SEQ]}); publisher likely died mid-publish"
                )
            time.sleep(0.0005)  # publish in flight; yield and retry

    def repair_seqlock(self) -> bool:
        """Force a sequence left odd by a dead publisher back to even.

        Called by a respawned writer before it publishes: the seqlock
        protocol cannot self-heal once its only writer is gone.  The
        triple underneath may be half-written; that is fine — readers
        that pick it up fail CRC verification and retry, and the new
        writer's first publish overwrites the whole record.  Returns
        whether a repair was needed.
        """
        if self._cells[_SEQ] & 1:
            self._cells[_SEQ] += 1
            return True
        return False

    @property
    def generation(self) -> int:
        """Racy single-cell read — the reader fast-path staleness check."""
        return self._cells[_GENERATION]

    @property
    def epoch(self) -> int:
        return self._cells[_EPOCH]

    # ------------------------------------------------------------------
    # Flags
    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        return bool(self._cells[_DEGRADED])

    def set_degraded(self, flag: bool) -> None:
        self._cells[_DEGRADED] = 1 if flag else 0

    @property
    def shutdown(self) -> bool:
        return bool(self._cells[_SHUTDOWN])

    def set_shutdown(self) -> None:
        self._cells[_SHUTDOWN] = 1

    @property
    def num_workers(self) -> int:
        return self._cells[_NUM_WORKERS]

    # ------------------------------------------------------------------
    # Process roster (supervisor/writer pids, respawn counters)
    # ------------------------------------------------------------------

    @property
    def owner_pid(self) -> int:
        """Pid of the process that created this control block."""
        return self._cells[_OWNER_PID]

    @property
    def writer_pid(self) -> int:
        """Pid of the live writer process (0 while down/restarting)."""
        return self._cells[_WRITER_PID]

    def set_writer_pid(self, pid: int) -> None:
        self._cells[_WRITER_PID] = pid

    def writer_alive(self) -> bool:
        """Liveness of the registered writer pid (False while down)."""
        pid = self._cells[_WRITER_PID]
        return bool(pid) and pid_alive(pid)

    @property
    def worker_restarts(self) -> int:
        return self._cells[_WORKER_RESTARTS]

    @property
    def writer_restarts(self) -> int:
        return self._cells[_WRITER_RESTARTS]

    def incr_worker_restarts(self) -> int:
        """Supervisor-only (single writing process per cell)."""
        self._cells[_WORKER_RESTARTS] += 1
        return self._cells[_WORKER_RESTARTS]

    def incr_writer_restarts(self) -> int:
        """Supervisor-only (single writing process per cell)."""
        self._cells[_WRITER_RESTARTS] += 1
        return self._cells[_WRITER_RESTARTS]

    # ------------------------------------------------------------------
    # Worker slots
    # ------------------------------------------------------------------

    def worker_cells(self, worker_id: int) -> memoryview:
        """The raw i64 slot for *worker_id* (its single-writer scratch)."""
        if not 0 <= worker_id < MAX_WORKERS:
            raise ValueError(f"worker id {worker_id} out of range")
        base = _HEADER_CELLS + worker_id * _SLOT_CELLS
        return self._cells[base:base + _SLOT_CELLS]

    def worker_stats(self, worker_id: int) -> dict:
        slot = self.worker_cells(worker_id)
        return {
            "worker": worker_id,
            "pid": slot[SLOT_PID],
            "generation": slot[SLOT_GENERATION],
            "epoch": slot[SLOT_EPOCH],
            "requests": slot[SLOT_REQUESTS],
            "forwarded": slot[SLOT_FORWARDED],
            "shed": slot[SLOT_SHED],
            "attach_ts_ns": slot[SLOT_ATTACH_TS],
        }

    def workers(self) -> list[dict]:
        """Stats for every configured worker slot."""
        return [self.worker_stats(i) for i in range(self.num_workers)]
