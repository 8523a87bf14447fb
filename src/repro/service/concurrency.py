"""Synchronization primitives for the serving layer.

Two small pieces, both deliberately boring:

* :class:`RWLock` — a readers-writer lock that alternates between the
  two sides under contention.  Queries on a TOL index are pure reads
  over the label dictionaries, so any number may proceed in parallel;
  the update algorithms (Section 5) mutate labels, inverted lists and
  the order structure together and therefore need full exclusion.  A
  waiting writer holds back new readers, so a steady query stream cannot
  starve the writer, and the readers already waiting when a writer
  releases go before the next writer, so a write burst cannot starve the
  readers — the paper's dynamic experiments interleave both.

* :class:`EpochCounter` — a monotonic version number for the index.  Every
  successful insert/delete/reduction bumps it exactly once; readers stamp
  derived results (cached answers) with the epoch they were computed at.
  Anything stamped with an older epoch is stale by definition, which is
  what lets the query cache invalidate lazily in O(1) per write
  (:mod:`repro.service.cache`).  It doubles as the change signal that
  wakes the shared-memory publisher (:mod:`repro.shm.publisher`).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Optional

__all__ = ["RWLock", "EpochCounter"]


class RWLock:
    """A readers-writer lock that hands off between the two sides.

    Any number of readers may hold the lock together; writers get full
    exclusion.  A waiting writer blocks *new* readers from entering, so
    writes cannot starve under a continuous query stream.  When a writer
    releases, every reader already waiting at that moment is admitted
    before the next writer may enter, so a back-to-back run of writes
    cannot starve the readers either: a waiting reader is answered after
    at most one more write.

    The lock is not reentrant: a thread must not acquire it (in either
    mode) while already holding it — upgrading a read hold to a write
    hold deadlocks by design, as it would for any correct RW lock.

    Examples
    --------
    >>> lock = RWLock()
    >>> with lock.read_locked():
    ...     pass
    >>> with lock.write_locked():
    ...     pass
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0
        self._readers_waiting = 0
        # Each write release that finds readers waiting admits them as
        # one group: it bumps the generation and counts the group, and
        # no writer enters until every admitted reader has.
        self._admit_generation = 0
        self._admitted = 0

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------

    def acquire_read(self, timeout: Optional[float] = None) -> bool:
        """Enter the read side; return ``True`` on success.

        With ``timeout=None`` (the default) this blocks until no writer
        is active or waiting, or until a writer's release admits it, and
        always returns ``True``.  With a timeout in seconds it gives up
        after the deadline and returns ``False`` *without* holding the
        lock — the metric gauges and the health probe use this so they
        never stall behind a long writer (e.g. a rebuild).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            if self._writer_active or self._writers_waiting:
                generation = self._admit_generation
                self._readers_waiting += 1
                try:
                    while True:
                        if self._admit_generation != generation:
                            self._admitted -= 1  # admitted by a release
                            break
                        if not (self._writer_active or self._writers_waiting):
                            break
                        if deadline is None:
                            self._cond.wait()
                            continue
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            return False
                        self._cond.wait(remaining)
                finally:
                    self._readers_waiting -= 1
            self._active_readers += 1
            return True

    def release_read(self) -> None:
        """Leave the read side; wake writers when the last reader exits."""
        with self._cond:
            self._active_readers -= 1
            if self._active_readers < 0:
                self._active_readers = 0
                raise RuntimeError("release_read() without acquire_read()")
            if self._active_readers == 0:
                self._cond.notify_all()

    @contextmanager
    def read_locked(self):
        """``with``-statement form of acquire_read/release_read."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    # ------------------------------------------------------------------
    # Writer side
    # ------------------------------------------------------------------

    def acquire_write(self) -> None:
        """Block until the lock is free of readers and writers, then own it.

        Readers admitted by the previous write release count as present
        until they have entered.
        """
        with self._cond:
            self._writers_waiting += 1
            try:
                while (
                    self._writer_active or self._active_readers
                    or self._admitted
                ):
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        """Give up write ownership, admit the waiting readers, wake all."""
        with self._cond:
            if not self._writer_active:
                raise RuntimeError("release_write() without acquire_write()")
            self._writer_active = False
            if self._readers_waiting:
                self._admit_generation += 1
                self._admitted = self._readers_waiting
            self._cond.notify_all()

    @contextmanager
    def write_locked(self):
        """``with``-statement form of acquire_write/release_write."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    def __repr__(self) -> str:
        with self._cond:
            return (
                f"{type(self).__name__}(readers={self._active_readers}, "
                f"writer={self._writer_active}, "
                f"writers_waiting={self._writers_waiting}, "
                f"readers_waiting={self._readers_waiting})"
            )


class EpochCounter:
    """A thread-safe monotonic version counter that wakes its waiters.

    ``value`` reads the current epoch; :meth:`bump` advances it by one and
    returns the new epoch.  The serving layer bumps once per successful
    index mutation while holding the write lock, so within any read-locked
    section the epoch is constant.

    Every bump, and every :meth:`signal` (a state change that does not
    move the epoch, such as the degraded flag flipping), advances a
    separate change count and wakes :meth:`wait_changed` callers — the
    shared-memory publisher sleeps there instead of polling.
    """

    __slots__ = ("_lock", "_cond", "_value", "_changes")

    def __init__(self, start: int = 0) -> None:
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._value = start
        self._changes = 0

    @property
    def value(self) -> int:
        """The current epoch."""
        with self._lock:  # the plain lock: cheaper than the condition
            return self._value

    def bump(self) -> int:
        """Advance the epoch by one, wake waiters; return the new value."""
        with self._cond:
            self._value += 1
            self._changes += 1
            self._cond.notify_all()
            return self._value

    def signal(self) -> None:
        """Wake waiters without moving the epoch."""
        with self._cond:
            self._changes += 1
            self._cond.notify_all()

    def wait_changed(self, seen: int, timeout: Optional[float] = None) -> int:
        """Block until the change count differs from *seen* or *timeout*
        passes.

        Returns the change count at wake-up; pass it back as *seen* next
        time so that nothing signalled in between is missed.
        """
        with self._cond:
            self._cond.wait_for(lambda: self._changes != seen, timeout)
            return self._changes

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.value})"
