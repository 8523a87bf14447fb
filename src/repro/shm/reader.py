"""Reader-side attachment to published snapshots.

A reader holds one :class:`AttachedSnapshot` at a time: a
:class:`~repro.core.frozen.FrozenTOLIndex` whose buffers are
``memoryview.cast`` views straight into the shared data segment (zero
copies — the labels are the writer's interned ids, read as they are;
only the vertex table with its ids and the ``component_of`` dict are
rebuilt from the pack's sections), plus its epoch and generation.

The per-request fast path is :meth:`SnapshotReader.current`: one racy
i64 read of the control block's generation cell; only when it moved does
the reader take the slow path — seqlock-read the triple, attach the new
segment, verify the pack CRC once, swap, and close the old mapping (the
publisher may have already unlinked the old *name*; the mapping itself
stays valid until closed).  An attach can race the unlink of a retired
segment (``FileNotFoundError``): the control block then already names a newer
generation, so the reader simply retries.

Hardening (the failure model in docs/robustness.md):

* every slow-path loop is **bounded** — torn reads, CRC mismatches and
  vanished segments are retried a fixed number of times, then surface
  as :class:`~repro.errors.SnapshotUnavailableError` instead of
  spinning;
* a **stalled seqlock** (the writer died mid-flip, sequence stuck odd)
  or an exhausted retry budget does not take down a reader that already
  holds a snapshot: :meth:`current` falls back to the previously
  attached generation (``stale_serves`` counts those) because a stale
  correct answer beats no answer while the writer is respawned;
* the pack CRC is re-verified on **every** attach (``unpack_snapshot``
  checksums the whole body), so a segment corrupted in place is caught
  at the next re-attach, never silently served.
"""

from __future__ import annotations

import time
from typing import Optional

from ..core.frozen import FrozenTOLIndex
from ..core.serialize import unpack_snapshot
from ..errors import SerializationError, SnapshotUnavailableError
from .control import ControlBlock, attach_segment, segment_name

__all__ = ["AttachedSnapshot", "SnapshotReader"]


class AttachedSnapshot:
    """One attached generation: frozen index + component map + identity."""

    __slots__ = (
        "frozen", "component_of", "epoch", "generation", "data_len",
        "published_at_ns", "attached_at_ns", "_shm",
    )

    def __init__(
        self,
        frozen: FrozenTOLIndex,
        component_of: dict,
        epoch: int,
        generation: int,
        data_len: int,
        published_at_ns: int,
        shm,
    ) -> None:
        self.frozen = frozen
        self.component_of = component_of
        self.epoch = epoch
        self.generation = generation
        self.data_len = data_len
        self.published_at_ns = published_at_ns
        self.attached_at_ns = time.time_ns()
        self._shm = shm

    def query(self, s, t) -> bool:
        """Reachability over the snapshot (raises ``KeyError`` on unknowns)."""
        cs = self.component_of[s]
        ct = self.component_of[t]
        return cs == ct or self.frozen.query(cs, ct)

    def age_ms(self) -> float:
        """Milliseconds since this snapshot was published."""
        if not self.published_at_ns:
            return 0.0
        return max(0.0, (time.time_ns() - self.published_at_ns) / 1e6)

    def close(self) -> None:
        """Drop the frozen views, then the mapping they pointed into."""
        self.frozen = None
        self.component_of = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - a view still escaped
            pass


class SnapshotReader:
    """Track the latest published snapshot for one reader process."""

    def __init__(self, control_name: str) -> None:
        self.control = ControlBlock.attach(control_name)
        self._base = control_name.removesuffix("-ctl")
        self._current: Optional[AttachedSnapshot] = None
        self.reattaches = 0
        self.stale_serves = 0
        self.attach_failures = 0

    @property
    def degraded(self) -> bool:
        return self.control.degraded

    @property
    def shutdown(self) -> bool:
        return self.control.shutdown

    def current(self) -> AttachedSnapshot:
        """The snapshot to serve this request from (re-attaching if stale).

        When the control block names a newer generation that cannot be
        attached (stalled seqlock, CRC-corrupt segment, raced unlinks
        through the whole retry budget), the previously attached
        snapshot is served instead — it is immutable, CRC-verified at
        attach time, and merely stale.  Only a reader with *no* prior
        snapshot propagates :class:`SnapshotUnavailableError`.
        """
        snap = self._current
        if snap is not None and snap.generation == self.control.generation:
            return snap
        try:
            return self._attach_latest()
        except SnapshotUnavailableError:
            if snap is not None:
                self.stale_serves += 1
                return snap
            raise

    def _attach_latest(self, *, attempts: int = 50) -> AttachedSnapshot:
        last_error: Optional[Exception] = None
        for _ in range(attempts):
            generation, epoch, data_len, ts = self.control.read_snapshot()
            if generation == 0:
                raise SnapshotUnavailableError("no snapshot published yet")
            try:
                shm = attach_segment(segment_name(self._base, generation))
            except FileNotFoundError as exc:
                # Raced a retired segment's unlink; the control block now
                # names a newer generation — retry reads it.
                last_error = exc
                self.attach_failures += 1
                time.sleep(0.01)
                continue
            try:
                # Attached segments are page-rounded; the control block
                # carries the exact pack length.  unpack_snapshot verifies
                # the pack CRC over the whole body on every attach.
                frozen, component_of, meta = unpack_snapshot(
                    shm.buf[:data_len]
                )
            except (SerializationError, ValueError) as exc:
                # Torn read (the generation cell advanced before our
                # attach but the name holds newer bytes than the triple
                # we read) or an in-place corrupted segment.  Retry
                # re-reads a consistent triple; persistent corruption
                # exhausts the budget and surfaces below.
                shm.close()
                last_error = exc
                self.attach_failures += 1
                time.sleep(0.01)
                continue
            snap = AttachedSnapshot(
                frozen, component_of, meta.get("epoch", epoch),
                generation, data_len, ts, shm,
            )
            previous, self._current = self._current, snap
            if previous is not None:
                previous.close()
                self.reattaches += 1
            return snap
        raise SnapshotUnavailableError(
            f"could not attach a snapshot after {attempts} attempts: "
            f"{last_error}"
        ) from last_error

    def close(self) -> None:
        if self._current is not None:
            self._current.close()
            self._current = None
        self.control.close()
