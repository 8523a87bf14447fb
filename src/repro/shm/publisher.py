"""Writer-side snapshot publication into shared memory.

The publisher either **owns** the control segment (fresh boot: it
creates the block and every data segment, and unlinks them all on
close) or **attaches** to one a predecessor left behind (writer
failover: the supervisor keeps the control block alive across writer
respawns so readers never lose their map).  A publish is:

1. freeze the live index under the service read lock (a consistent
   ``(frozen, component_of, epoch)`` triple); the freeze leaves out the
   DAG edge list, which readers never use;
2. pack it to TOLF bytes with :func:`~repro.core.serialize.pack_snapshot`:
   the labels and the component map, no DAG edges — readers only query;
3. create ``{base}-g{generation}`` sized exactly to the pack, copy the
   bytes in;
4. seqlock-update the control block so readers see the new generation
   only after the segment is fully written, then close this process's
   mapping of the segment: the writer keeps no snapshot mapped, so its
   resident memory does not grow with the publish rate;
5. retire the previous segment: it stays linked so a reader that read
   the old generation just before the bump can still attach it, then it
   is unlinked by name (attached readers keep their mapping — unlink only
   removes the name).  A retired segment goes once its grace period ends
   or once :data:`MAX_RETIRED` newer ones have been retired, whichever
   comes first: at one publish per update the grace period alone would
   keep hundreds of segments in ``/dev/shm``.  A reader that races the
   unlink gets ``FileNotFoundError`` and re-reads the control block,
   which by then names a newer generation.

A background thread publishes when there is something to publish: it
sleeps on the service's change signal, which fires on every epoch bump
and every degraded-flag flip, not on a timer.  Only one publish runs at
a time, and one publish covers every epoch reached before its freeze.
After each publish the thread rests as long as that publish took, so
under a steady write stream publishing takes at most half the writer's
time and the updates that land meanwhile coalesce into the next
publish; an update after a quiet spell is published at once.  It runs
at :data:`PUBLISH_NICE`: on a busy CPU a publish should not hold up the
replies and reads that the server's other processes handle.  The
thread also mirrors the degraded flag into the control block so readers
route queries to the writer while the index is rebuilding; it clears
the flag only after the rebuilt index's generation is live.  Between
changes it wakes when the oldest retired segment's grace period ends, to
unlink it, and at least every quarter grace period to keep the
``shm.snapshot_age_ms`` gauge current.

Failover attach details:

* the seqlock is **repaired** first — a writer SIGKILLed mid-flip
  leaves the sequence odd forever, and only a new writer may fix it;
* generation numbering **continues** from the inherited value, so
  readers' single-cell staleness check stays monotonic;
* published epochs are **floored** at the inherited epoch: recovery
  replays the WAL, but if the recovered service restarts its epoch
  counter below what readers already saw, per-connection epoch pinning
  must not observe time going backwards;
* the inherited data segment is retired after the first fresh publish
  and unlinked by name, exactly like a segment the publisher created
  itself.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
import time
from typing import Optional

from ..core.serialize import pack_snapshot
from .control import (
    ControlBlock,
    create_segment,
    new_base_name,
    pid_alive,
    segment_name,
    unlink_segment,
)

__all__ = ["MAX_RETIRED", "PUBLISH_NICE", "SnapshotPublisher"]

#: Nice increment of the publisher thread (on Linux; elsewhere nice is
#: per process, and the thread keeps the process's priority).
PUBLISH_NICE = 10

#: Superseded generations kept linked at most; older ones are unlinked
#: before their grace period ends.  Bounds the publisher's ``/dev/shm``
#: use to ``MAX_RETIRED + 1`` segments whatever the publish rate.
MAX_RETIRED = 2


class SnapshotPublisher:
    """Publish frozen snapshots of *service*'s index into shared memory.

    Parameters
    ----------
    service:
        A :class:`~repro.service.server.ReachabilityService`; must expose
        ``freeze_snapshot()``, ``epoch``, ``degraded``,
        ``wait_changed()`` and ``wake_waiters()``.
    num_workers:
        Sizes the control block's worker-slot table (ignored in attach
        mode — the existing block already carries it).
    grace_period:
        Seconds a retired data segment stays linked after being
        superseded, unless :data:`MAX_RETIRED` newer segments retire
        first.
    registry:
        Optional metric registry; counts ``shm.publishes`` /
        ``shm.segments_unlinked`` and maintains the
        ``shm.snapshot_age_ms`` gauge.
    control:
        Name of an existing control segment to attach to instead of
        creating one (writer failover).  The attaching publisher never
        unlinks the control block or sets its shutdown flag — the
        supervisor owns both.
    injector:
        Optional :class:`~repro.service.faults.FaultInjector`; fires the
        ``shm.publish.flip`` crash point while the seqlock is odd, the
        narrowest window a writer death can leave readers stalled in.
    """

    def __init__(
        self,
        service,
        *,
        base: Optional[str] = None,
        num_workers: int = 0,
        grace_period: float = 5.0,
        registry=None,
        control: Optional[str] = None,
        injector=None,
    ) -> None:
        self.service = service
        self.grace_period = grace_period
        self.registry = registry
        self.injector = injector
        # Generations still linked that this writer unlinks once they are
        # superseded: every segment it created (it keeps none mapped past
        # the flip) plus, after a failover, the one it inherited.
        self._linked: set[int] = set()
        self.seqlock_repaired = False
        if control is not None:
            self.control = ControlBlock.attach(control)
            self.base = control.removesuffix("-ctl")
            self._owns_control = False
            self.seqlock_repaired = self.control.repair_seqlock()
            generation, epoch, _len, _ts = self.control.read_snapshot()
            self._generation = generation
            self._epoch_floor = epoch
            if generation:
                self._linked.add(generation)
        else:
            self.base = base or new_base_name()
            self.control = ControlBlock.create(self.base, num_workers=num_workers)
            self._owns_control = True
            self._generation = 0
            self._epoch_floor = 0
        self._published_epoch: Optional[int] = None
        self._published_degraded = False
        self._retired: list[tuple[float, int]] = []  # (retired_at, generation)
        self._publishes = 0
        self._unlinked = 0
        self._last_publish: Optional[dict] = None
        # Held for a whole publish (freeze to flip): one publish at a time.
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    @property
    def control_name(self) -> str:
        return self.control.name

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def owns_control(self) -> bool:
        return self._owns_control

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------

    def publish(self) -> int:
        """Freeze + pack + publish one snapshot; returns its generation.

        Serialised: a concurrent call waits for the running publish, then
        publishes whatever the service holds by then.
        """
        with self._lock:
            started = time.perf_counter()
            frozen, component_of, epoch = self.service.freeze_snapshot()
            frozen_at = time.perf_counter()
            publish_epoch = max(epoch, self._epoch_floor)
            blob = pack_snapshot(
                frozen, component_of, {"epoch": publish_epoch}
            )
            packed_at = time.perf_counter()
            generation = self._generation + 1
            name = segment_name(self.base, generation)
            try:
                shm = create_segment(name, len(blob))
            except FileExistsError:
                # A predecessor died between creating this generation's
                # segment and flipping the control block to name it; the
                # name is linked but unreferenced, so reclaim it.
                unlink_segment(name)
                shm = create_segment(name, len(blob))
            self._linked.add(generation)
            try:
                shm.buf[:len(blob)] = blob
                self.control.write_snapshot(
                    generation, publish_epoch, len(blob),
                    on_flip=self._on_flip,
                )
            finally:
                shm.close()
            previous = self._generation
            self._generation = generation
            if previous:
                self._retired.append((time.monotonic(), previous))
            self._published_epoch = epoch
            self._publishes += 1
            done = time.perf_counter()
            self._last_publish = {
                "ms": round((done - started) * 1e3, 3),
                "freeze_ms": round((frozen_at - started) * 1e3, 3),
                "pack_ms": round((packed_at - frozen_at) * 1e3, 3),
            }
        if self.registry is not None:
            self.registry.incr("shm.publishes")
            self.registry.gauge("shm.snapshot_age_ms").set(0.0)
        self._reap_retired()
        return generation

    def _on_flip(self) -> None:
        """Crash-point hook invoked while the seqlock sequence is odd."""
        if self.injector is not None:
            self.injector.fire("shm.publish.flip")

    def poll_once(self) -> bool:
        """Publish iff the service moved on; mirror the degraded flag.

        The flag is set before a publish and cleared only after one:
        readers keep forwarding to the writer until the generation
        holding the rebuilt index is live, so they never answer from the
        index the flag was guarding, nor at an epoch older than a
        forwarded reply already showed.

        Returns ``True`` when a new snapshot was published.
        """
        # Read once, before the epoch: a rebuild bumps the epoch before
        # it leaves degraded mode, so a clear flag read here means the
        # publish below freezes the rebuilt index or a later one.
        degraded = bool(self.service.degraded)
        if degraded and not self._published_degraded:
            self.control.set_degraded(True)
            self._published_degraded = True
        published = self.service.epoch != self._published_epoch
        if published:
            self.publish()
        else:
            self._reap_retired()
            self._update_age_gauge()
        if self._published_degraded and not degraded:
            self.control.set_degraded(False)
            self._published_degraded = False
        return published

    def _update_age_gauge(self) -> None:
        if self.registry is None:
            return
        _gen, _epoch, _len, ts_ns = self.control.read_snapshot()
        if ts_ns:
            age_ms = max(0.0, (time.time_ns() - ts_ns) / 1e6)
            self.registry.gauge("shm.snapshot_age_ms").set(round(age_ms, 3))

    def _reap_retired(self) -> None:
        """Unlink retired segments past their grace period or the cap."""
        now = time.monotonic()
        with self._lock:
            keep = []
            for k, (retired_at, generation) in enumerate(self._retired):
                newer = len(self._retired) - 1 - k
                if newer >= MAX_RETIRED or now - retired_at >= self.grace_period:
                    self._unlink_generation(generation)
                else:
                    keep.append((retired_at, generation))
            self._retired = keep

    def _idle_timeout(self, tick: float) -> float:
        """Seconds the thread may sleep: *tick*, or less if the oldest
        retired segment's grace period ends sooner."""
        with self._lock:
            if not self._retired:
                return tick
            due = self._retired[0][0] + self.grace_period - time.monotonic()
        return min(tick, max(due, 0.0))

    def _unlink_generation(self, generation: int) -> None:
        """Unlink a generation this writer created or inherited, by name."""
        if generation not in self._linked:
            return
        self._linked.discard(generation)
        if not unlink_segment(segment_name(self.base, generation)):
            return  # janitor or sweep beat us
        self._unlinked += 1
        if self.registry is not None:
            self.registry.incr("shm.segments_unlinked")

    # ------------------------------------------------------------------
    # Background polling
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the publisher thread (idempotent).

        The thread sleeps until the service signals a change (an epoch
        bump or a degraded-flag flip), then runs :meth:`poll_once`.
        After a publish it rests as long as the publish took; changes
        that land during the publish or the rest are all picked up by
        the next one, so a write burst coalesces.
        Without changes it still wakes when a retired segment's grace
        period ends, to unlink it, and every quarter grace period to
        refresh the age gauge.
        """
        if self._thread is not None:
            return
        tick = max(self.grace_period / 4, 0.01)

        def loop() -> None:
            if sys.platform.startswith("linux"):
                tid = threading.get_native_id()
                with contextlib.suppress(OSError):  # e.g. a seccomp filter
                    niceness = os.getpriority(os.PRIO_PROCESS, tid)
                    os.setpriority(os.PRIO_PROCESS, tid, niceness + PUBLISH_NICE)
            seen = -1  # publish-check at once
            while not self._stop.is_set():
                seen = self.service.wait_changed(seen, self._idle_timeout(tick))
                if self._stop.is_set():
                    break
                try:
                    if self.poll_once():
                        # Rest as long as the publish took, so publishing
                        # takes at most half the writer's time under a
                        # write stream; updates meanwhile coalesce (a
                        # degraded flip waits out the rest too).
                        self._stop.wait(self._last_publish["ms"] / 1e3)
                except Exception:  # pragma: no cover - keep publishing
                    if self.registry is not None:
                        self.registry.incr("shm.publish_errors")

        self._thread = threading.Thread(
            target=loop, name="shm-publisher", daemon=True
        )
        self._thread.start()

    def close(self) -> None:
        """Stop polling; unlink what this process owns.

        Owner mode (fresh boot, single assembly teardown): signal
        shutdown to readers, unlink every data segment and the control
        block.  Attach mode (a failover writer exiting): leave the
        control block and the *current* generation linked — readers are
        still serving from it and the successor writer (or the
        supervisor's final sweep) retires it; unlink only superseded
        segments this writer created or inherited.
        """
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._thread is not None:
            self.service.wake_waiters()
            self._thread.join(timeout=5.0)
        if self._owns_control:
            self.control.set_shutdown()
        with self._lock:
            keep_current = None if self._owns_control else self._generation
            for generation in list(self._linked):
                if generation != keep_current:
                    self._unlink_generation(generation)
            self._retired.clear()
        self.control.close()
        if self._owns_control:
            self.control.unlink()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def health_section(self) -> dict:
        """Snapshot-plane health for ``repro health`` / the health op."""
        generation, epoch, data_len, ts_ns = self.control.read_snapshot()
        now_ns = time.time_ns()
        workers = []
        for stats in self.control.workers():
            attach_ns = stats.pop("attach_ts_ns")
            stats["snapshot_age_s"] = round(
                max(0.0, (now_ns - attach_ns) / 1e9), 3
            ) if attach_ns else None
            stats["alive"] = pid_alive(stats["pid"])
            workers.append(stats)
        return {
            "base": self.base,
            "generation": generation,
            "epoch": epoch,
            "bytes": data_len,
            "age_s": round(max(0.0, (now_ns - ts_ns) / 1e9), 3) if ts_ns else None,
            "publishes": self._publishes,
            "segments_unlinked": self._unlinked,
            "segments_live": len(self._linked),
            "grace_period_s": self.grace_period,
            "last_publish": self._last_publish,
            "degraded": self.control.degraded,
            "writer_pid": self.control.writer_pid,
            "worker_restarts": self.control.worker_restarts,
            "writer_restarts": self.control.writer_restarts,
            "seqlock_repaired": self.seqlock_repaired,
            "workers": workers,
        }
