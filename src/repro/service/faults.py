"""Deterministic fault injection for the crash-safety story.

:class:`FaultInjector` is a registry of **named crash points** threaded
through the durability layer and the update-apply loop
(docs/robustness.md).  Tests arm a point
(``injector.arm("wal.append.torn")``) and the next time execution
reaches it, the process "crashes" (an :class:`InjectedCrash` is raised)
or an I/O error is injected — deterministically, at exactly that point.
The crash-matrix test (tests/service/test_recovery.py) iterates
:data:`CRASH_POINTS`, kills the service at each one, recovers, and
checks the result against a BFS oracle.  An injected ``OSError`` at
``service.apply`` is a failed update kernel (the service puts the op on
the served graph and rebuilds the index from it); at a ``wal.append.*``
point it is a failed
append (the batch's records are rolled back and the request fails).

:class:`InjectedCrash` deliberately derives from :class:`BaseException`:
a real ``kill -9`` is not catchable, so the simulated one must sail past
every ``except Exception`` (including the service's kernel-failure
handler) and unwind the whole call stack, exactly like the real thing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = [
    "CRASH_POINTS",
    "SHM_CRASH_POINTS",
    "InjectedCrash",
    "FaultInjector",
    "NULL_INJECTOR",
]

#: Every named crash point the durability layer fires, in execution
#: order.  The crash-matrix test derives its parametrization from this
#: tuple, so adding a site here automatically extends the matrix.
CRASH_POINTS = (
    "wal.append.before",    # before the record's bytes reach the file
    "wal.append.torn",      # half the record written, then crash (torn tail)
    "wal.append.after",     # record fully written, before the batch syncs
    "wal.sync",             # after writes, during the fsync itself
    "service.apply",        # op logged, before it reaches the graph or index
    "checkpoint.serialize", # before the checkpoint temp file is written
    "checkpoint.rename",    # temp file complete, before the atomic rename
    "checkpoint.after",     # checkpoint live, before the WAL is trimmed
)

#: Crash points in the shared-memory snapshot plane.  Kept separate
#: from :data:`CRASH_POINTS` because the single-process crash-matrix
#: test parametrizes over that tuple and these sites are unreachable
#: without a running publisher; the process-level chaos harness
#: (:mod:`repro.net.chaos`) exercises them instead.
SHM_CRASH_POINTS = (
    "shm.publish.flip",     # seqlock sequence odd, snapshot triple torn
)

_ACTIONS = ("crash", "ioerror", "torn", "kill")


class InjectedCrash(BaseException):
    """A simulated process death at a named crash point.

    A ``BaseException`` so no ``except Exception`` handler (the
    kernel-failure rebuild) can accidentally "survive" it — recovery
    from an injected crash must go through
    :meth:`ReachabilityService.recover`, like the real thing.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"injected crash at {point!r}")
        self.point = point


@dataclass
class _Armed:
    """One armed fault: fire *action* on the (after)-th hit, *times* times."""

    action: str
    after: int = 1
    times: int = 1
    hits: int = 0
    fired: int = 0


class FaultInjector:
    """Thread-safe registry of armed faults at named crash points.

    Examples
    --------
    >>> injector = FaultInjector()
    >>> injector.arm("service.apply", after=2)
    >>> injector.take("service.apply") is None   # first hit: pass through
    True
    >>> injector.take("service.apply")
    'crash'
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._armed: dict[str, _Armed] = {}
        self._hits: dict[str, int] = {}

    def arm(
        self,
        point: str,
        action: str = "crash",
        *,
        after: int = 1,
        times: int = 1,
    ) -> None:
        """Arm *point* to fire *action* on its *after*-th hit.

        ``action`` is ``"crash"`` (raise :class:`InjectedCrash`),
        ``"ioerror"`` (raise :class:`OSError`, exercising I/O-failure
        handling), ``"torn"`` (WAL-append only: write half the record,
        then crash), or ``"kill"`` (``SIGKILL`` the calling process —
        the process-level chaos harness; nothing survives, exactly like
        ``kill -9``).  ``times`` bounds how many consecutive hits fire
        after the trigger point (``times=0`` means every later hit).
        """
        if point not in CRASH_POINTS and point not in SHM_CRASH_POINTS:
            raise ValueError(
                f"unknown crash point {point!r}; see CRASH_POINTS / "
                f"SHM_CRASH_POINTS"
            )
        if action not in _ACTIONS:
            raise ValueError(f"unknown fault action {action!r}")
        if after < 1:
            raise ValueError(f"after must be >= 1, got {after}")
        with self._lock:
            self._armed[point] = _Armed(action, after=after, times=times)

    def disarm(self, point: str) -> None:
        """Remove any armed fault at *point* (no-op when absent)."""
        with self._lock:
            self._armed.pop(point, None)

    def reset(self) -> None:
        """Disarm every point and zero the hit counters."""
        with self._lock:
            self._armed.clear()
            self._hits.clear()

    def take(self, point: str):
        """Count one hit of *point*; return the due action or ``None``.

        Sites with special semantics (the WAL's torn write) call this
        directly and implement the action themselves; everything else
        goes through :meth:`fire`.
        """
        with self._lock:
            self._hits[point] = self._hits.get(point, 0) + 1
            armed = self._armed.get(point)
            if armed is None:
                return None
            armed.hits += 1
            if armed.hits < armed.after:
                return None
            if armed.times and armed.fired >= armed.times:
                return None
            armed.fired += 1
            return armed.action

    def fire(self, point: str) -> None:
        """Hit *point*; raise if an armed fault is due, else return."""
        action = self.take(point)
        if action is None:
            return
        if action == "ioerror":
            raise OSError(f"injected I/O error at {point!r}")
        if action == "kill":
            import os
            import signal as _signal

            # A real, uncatchable death: no finally blocks, no flushes.
            os.kill(os.getpid(), _signal.SIGKILL)
        # "torn" outside the WAL append site degrades to a plain crash.
        raise InjectedCrash(point)

    def hits(self, point: str) -> int:
        """How many times execution has reached *point*."""
        with self._lock:
            return self._hits.get(point, 0)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"{type(self).__name__}(armed={sorted(self._armed)}, "
                f"hits={dict(self._hits)})"
            )


class _NullInjector(FaultInjector):
    """The default injector: every site is a no-op (not even counted)."""

    def arm(self, point, action="crash", *, after=1, times=1):  # noqa: ARG002
        raise ValueError(
            "cannot arm the shared null injector; pass a FaultInjector() "
            "to the component under test"
        )

    def take(self, point):  # noqa: ARG002
        return None

    def fire(self, point) -> None:  # noqa: ARG002
        return None


#: Shared do-nothing injector used when no faults are being injected.
NULL_INJECTOR = _NullInjector()
