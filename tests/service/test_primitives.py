"""Tests for the serving-layer primitives: RWLock and EpochCounter."""

import sys
import threading
import time

import pytest

from repro.service.concurrency import EpochCounter, RWLock


class TestRWLockBasics:
    def test_read_then_write_sequentially(self):
        lock = RWLock()
        with lock.read_locked():
            pass
        with lock.write_locked():
            pass

    def test_multiple_readers_coexist(self):
        lock = RWLock()
        inside = threading.Barrier(3, timeout=5)

        def reader():
            with lock.read_locked():
                inside.wait()  # all three must be inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    def test_unbalanced_release_rejected(self):
        lock = RWLock()
        with pytest.raises(RuntimeError):
            lock.release_write()
        with pytest.raises(RuntimeError):
            lock.release_read()


class TestRWLockExclusion:
    def test_writer_excludes_readers_and_writers(self):
        lock = RWLock()
        counter = {"value": 0, "max_seen": 0}
        guard = threading.Lock()

        def writer():
            for _ in range(50):
                with lock.write_locked():
                    with guard:
                        counter["value"] += 1
                        counter["max_seen"] = max(
                            counter["max_seen"], counter["value"]
                        )
                    with guard:
                        counter["value"] -= 1

        def reader():
            for _ in range(50):
                with lock.read_locked():
                    with guard:
                        assert counter["value"] == 0

        threads = [threading.Thread(target=writer) for _ in range(2)] + [
            threading.Thread(target=reader) for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert counter["max_seen"] == 1  # never two writers inside

    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock()
        lock.acquire_read()
        writer_started = threading.Event()
        writer_done = threading.Event()

        def writer():
            writer_started.set()
            with lock.write_locked():
                pass
            writer_done.set()

        t = threading.Thread(target=writer)
        t.start()
        writer_started.wait(timeout=5)
        time.sleep(0.05)  # let the writer reach the wait loop

        # A new reader must now block (writer preference) until the
        # original reader leaves and the writer completes.
        entered = threading.Event()

        def late_reader():
            with lock.read_locked():
                entered.set()

        t2 = threading.Thread(target=late_reader)
        t2.start()
        time.sleep(0.05)
        assert not entered.is_set()
        lock.release_read()
        t.join(timeout=5)
        t2.join(timeout=5)
        assert writer_done.is_set() and entered.is_set()


    def test_handoff_under_contention_keeps_exclusion_and_finishes(self):
        # Writers back to back, readers with and without a deadline, a
        # tiny switch interval: every thread finishes (no admitted reader
        # is lost, so no writer waits forever), a writer is never inside
        # with anyone else, and the lock ends idle.
        lock = RWLock()
        inside = {"readers": 0, "writers": 0}
        guard = threading.Lock()
        violations = []

        def check():
            if inside["writers"] > 1 or (
                inside["writers"] and inside["readers"]
            ):
                violations.append(dict(inside))

        def writer():
            for _ in range(200):
                with lock.write_locked():
                    with guard:
                        inside["writers"] += 1
                        check()
                    with guard:
                        inside["writers"] -= 1

        def reader(timeout):
            for _ in range(200):
                if not lock.acquire_read(timeout=timeout):
                    continue
                try:
                    with guard:
                        inside["readers"] += 1
                        check()
                    with guard:
                        inside["readers"] -= 1
                finally:
                    lock.release_read()

        threads = [threading.Thread(target=writer) for _ in range(3)] + [
            threading.Thread(target=reader, args=(timeout,))
            for timeout in (None, None, None, 1e-4, 1e-3, 0.0)
        ]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert violations == []
        assert repr(lock).endswith(
            "(readers=0, writer=False, writers_waiting=0, readers_waiting=0)"
        )
        assert lock._admitted == 0  # no admitted reader left behind


class TestEpochCounter:
    def test_starts_at_zero_and_bumps(self):
        epoch = EpochCounter()
        assert epoch.value == 0
        assert epoch.bump() == 1
        assert epoch.bump() == 2
        assert epoch.value == 2

    def test_concurrent_bumps_never_lose_updates(self):
        epoch = EpochCounter()

        def bump_many():
            for _ in range(1000):
                epoch.bump()

        threads = [threading.Thread(target=bump_many) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert epoch.value == 4000

    def test_wait_changed_wakes_on_bump_and_signal(self):
        epoch = EpochCounter()
        seen = epoch.wait_changed(-1, timeout=0)  # current change count
        assert epoch.wait_changed(seen, timeout=0.01) == seen  # timed out
        epoch.bump()
        seen = epoch.wait_changed(seen, timeout=5)
        assert seen == 1
        epoch.signal()
        assert epoch.wait_changed(seen, timeout=5) == 2
        assert epoch.value == 1  # a signal does not move the epoch

    def test_waiter_never_misses_the_last_change(self):
        epoch = EpochCounter()
        total = 6 * 300
        observed = []

        def waiter():
            # No timeout: a lost wake-up leaves this thread blocked.
            seen = -1
            while seen != total:
                seen = epoch.wait_changed(seen)
                observed.append(seen)

        def bump_many():
            for _ in range(300):
                epoch.bump()

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            watch = threading.Thread(target=waiter, daemon=True)
            watch.start()
            threads = [threading.Thread(target=bump_many) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            watch.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not watch.is_alive()
        assert epoch.value == total
        assert observed == sorted(observed)
