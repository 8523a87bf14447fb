"""Publisher/reader integration over real shared-memory segments.

Single-process, two mappings: the :class:`SnapshotPublisher` freezes a
live :class:`ReachabilityService` into a segment, the
:class:`SnapshotReader` attaches it like a reader worker would, and the
tests assert the whole lifecycle — publish, agree with the live index,
republish on update, grace-period unlink, health reporting.
"""

import os
import random
import sys
import threading
import time

import pytest

from repro.errors import SnapshotUnavailableError
from repro.graph.generators import random_dag
from repro.graph.traversal import bidirectional_reachable
from repro.service.server import ReachabilityService
from repro.shm.control import attach_segment, create_segment, segment_name
from repro.shm.janitor import sweep_family
from repro.shm.publisher import MAX_RETIRED, PUBLISH_NICE, SnapshotPublisher
from repro.shm.reader import SnapshotReader


@pytest.fixture()
def graph():
    return random_dag(60, 160, seed=13)


@pytest.fixture()
def service(graph):
    return ReachabilityService(graph.copy())


@pytest.fixture()
def plane(service):
    publisher = SnapshotPublisher(service, num_workers=2, grace_period=30.0)
    reader = None
    try:
        publisher.publish()
        reader = SnapshotReader(publisher.control_name)
        yield service, publisher, reader
    finally:
        if reader is not None:
            reader.close()
        publisher.close()


class TestPublishAttach:
    def test_reader_agrees_with_live_service(self, plane, graph):
        service, publisher, reader = plane
        snap = reader.current()
        assert snap.generation == 1
        assert snap.epoch == service.epoch
        rng = random.Random(2)
        vertices = list(graph.vertices())
        for _ in range(300):
            s, t = rng.choice(vertices), rng.choice(vertices)
            assert snap.query(s, t) == bidirectional_reachable(
                graph, s, t
            ), (s, t)

    def test_unknown_vertex_raises_keyerror(self, plane):
        _, _, reader = plane
        with pytest.raises(KeyError):
            reader.current().query("no-such-vertex", 0)

    def test_string_vertices_round_trip_through_json_table(self):
        # Non-int vertices take the JSON fallback of the vertex table;
        # the cycle a -> b -> c -> a makes one multi-vertex component.
        from repro.graph.digraph import DiGraph

        graph = DiGraph(edges=[
            ("a", "b"), ("b", "c"), ("c", "a"), ("c", ("d", 1)),
            (("d", 1), "e"), ("f", "e"),
        ])
        publisher = SnapshotPublisher(ReachabilityService(graph.copy()))
        try:
            publisher.publish()
            reader = SnapshotReader(publisher.control_name)
            try:
                snap = reader.current()
                for s in graph.vertices():
                    for t in graph.vertices():
                        assert snap.query(s, t) == bidirectional_reachable(
                            graph, s, t
                        ), (s, t)
            finally:
                reader.close()
        finally:
            publisher.close()

    def test_current_is_stable_between_publishes(self, plane):
        _, _, reader = plane
        assert reader.current() is reader.current()
        assert reader.reattaches == 0


class TestRepublish:
    def test_update_triggers_republish_with_new_answer(self, plane, graph):
        service, publisher, reader = plane
        vertices = sorted(graph.vertices())
        # Find a pair with no path, then wire it directly.
        s, t = next(
            (s, t)
            for s in vertices
            for t in vertices
            if s != t and not bidirectional_reachable(graph, s, t)
        )
        assert reader.current().query(s, t) is False

        service.insert_edge(s, t)
        assert publisher.poll_once() is True  # epoch moved -> republished

        snap = reader.current()
        assert snap.generation == 2
        assert snap.epoch == service.epoch
        assert snap.query(s, t) is True
        assert reader.reattaches == 1

    def test_poll_once_is_a_noop_without_changes(self, plane):
        service, publisher, reader = plane
        assert publisher.poll_once() is False
        assert reader.current().generation == 1

    def test_degraded_flag_is_mirrored(self, plane):
        service, publisher, reader = plane
        service.enter_degraded()
        try:
            publisher.poll_once()
            assert reader.degraded is True
        finally:
            service.exit_degraded()
        publisher.poll_once()
        assert reader.degraded is False

    def test_degraded_flag_stays_set_until_the_rebuilt_generation_is_live(
        self, plane, monkeypatch
    ):
        service, publisher, reader = plane
        service.enter_degraded()
        publisher.poll_once()
        assert publisher.control.degraded is True
        service.rebuild_index()  # bumps the epoch, then leaves degraded
        flips = []
        write_snapshot = publisher.control.write_snapshot

        def spy(generation, *args, **kwargs):
            before = publisher.control.degraded
            write_snapshot(generation, *args, **kwargs)
            flips.append((generation, before, publisher.control.degraded))

        monkeypatch.setattr(publisher.control, "write_snapshot", spy)
        assert publisher.poll_once() is True
        # Readers kept forwarding while generation 2 was being written
        # and flipped; only then did the flag clear.
        assert flips == [(2, True, True)]
        assert publisher.control.degraded is False
        assert reader.degraded is False
        snap = reader.current()
        assert (snap.generation, snap.epoch) == (2, service.epoch)


class TestGracePeriod:
    def test_retired_segment_unlinks_after_grace(self, service, graph):
        publisher = SnapshotPublisher(service, grace_period=0.0)
        try:
            publisher.publish()
            if graph.has_edge(0, 1):
                service.delete_edge(0, 1)
            else:
                service.insert_edge(0, 1)
            publisher.publish()
            # grace 0: the retired generation goes away on the next reap.
            publisher._reap_retired()
            health = publisher.health_section()
            assert health["segments_unlinked"] == 1
            assert health["segments_live"] == 1
            assert health["generation"] == 2
        finally:
            publisher.close()

    def test_retired_segments_are_capped_before_grace_ends(self, service, graph):
        # grace 30s never expires here: only the cap can unlink.
        publisher = SnapshotPublisher(service, grace_period=30.0)
        reader = None
        try:
            publisher.publish()
            reader = SnapshotReader(publisher.control_name)
            first = reader.current()
            vertices = sorted(graph.vertices())
            publishes = MAX_RETIRED + 4
            for k in range(1, publishes):
                service.insert_edge(vertices[k], vertices[-k])
                publisher.publish()
            health = publisher.health_section()
            assert health["segments_live"] == MAX_RETIRED + 1
            assert health["segments_unlinked"] == publishes - MAX_RETIRED - 1
            for generation in range(1, publishes + 1):
                name = segment_name(publisher.base, generation)
                if generation > publishes - MAX_RETIRED - 1:
                    attach_segment(name).close()
                else:
                    with pytest.raises(FileNotFoundError):
                        attach_segment(name)
            # A reader still mapping an unlinked generation keeps serving it
            # (the fixture graph is the one generation 1 was frozen from).
            assert first.generation == 1
            for s, t in zip(vertices, reversed(vertices)):
                assert first.query(s, t) == bidirectional_reachable(graph, s, t)
            assert reader.current().generation == publishes
        finally:
            if reader is not None:
                reader.close()
            publisher.close()

    def test_reader_survives_publish_storm(self, service, graph):
        publisher = SnapshotPublisher(service, grace_period=0.0)
        reader = None
        try:
            publisher.publish()
            reader = SnapshotReader(publisher.control_name)
            vertices = sorted(graph.vertices())
            for k in range(5):
                tail, head = vertices[2 * k], vertices[2 * k + 1]
                if not graph.has_edge(tail, head):
                    service.insert_edge(tail, head)
                publisher.publish()
                snap = reader.current()
                assert snap.generation == publisher.generation
        finally:
            if reader is not None:
                reader.close()
            publisher.close()


class TestHealthSection:
    def test_shape_and_worker_slots(self, plane):
        service, publisher, reader = plane
        slot = reader.control.worker_cells(0)
        try:
            slot[0] = 999999  # SLOT_PID: definitely not a live process
        finally:
            slot.release()
        health = publisher.health_section()
        assert health["generation"] == 1
        assert health["epoch"] == service.epoch
        assert health["bytes"] > 0
        assert health["age_s"] >= 0.0
        assert health["publishes"] == 1
        assert health["degraded"] is False
        assert len(health["workers"]) == 2
        w0 = health["workers"][0]
        assert w0["pid"] == 999999
        assert w0["alive"] is False
        last = health["last_publish"]
        assert last["freeze_ms"] > 0.0 and last["pack_ms"] > 0.0
        # Each figure is rounded to the microsecond on its own.
        assert last["ms"] >= last["freeze_ms"] + last["pack_ms"] - 0.002

    def test_writer_keeps_no_segment_mapped(self, service, graph):
        publisher = SnapshotPublisher(service, grace_period=30.0)
        try:
            vertices = sorted(graph.vertices())
            for k in range(3):
                service.insert_edge(vertices[k], vertices[-1 - k])
                publisher.publish()
            # Every generation is still linked (3 is within the cap) ...
            assert publisher.health_section()["segments_live"] == 3
            # ... but none of them is mapped into this process.
            with open("/proc/self/maps") as maps:
                mapped = maps.read()
            assert f"{publisher.base}-g" not in mapped
        finally:
            publisher.close()

    def test_close_unlinks_everything_and_sets_shutdown(self, service):
        publisher = SnapshotPublisher(service, grace_period=30.0)
        publisher.publish()
        reader = SnapshotReader(publisher.control_name)
        snap = reader.current()  # keep the mapping alive across unlink
        assert snap.query(0, 0) is True
        assert reader.shutdown is False
        publisher.close()
        # Attached mappings stay readable after unlink removed the name.
        assert snap.query(0, 0) is True
        assert reader.shutdown is True
        reader.close()


class TestFailoverAttach:
    """A successor publisher re-binding to a surviving control block —
    the writer-respawn path, simulated in-process by abandoning the
    first publisher without closing it (a SIGKILLed writer runs no
    ``finally`` blocks either)."""

    def test_successor_resumes_generation_and_publishes(self, graph):
        service_a = ReachabilityService(graph.copy())
        first = SnapshotPublisher(service_a, num_workers=1, grace_period=0.0)
        base = first.base
        try:
            first.publish()
            reader = SnapshotReader(first.control_name)
            snap = reader.current()
            assert snap.generation == 1

            # "Respawn": a fresh service (as recovery would build) and a
            # publisher attached to the existing control block.
            service_b = ReachabilityService(graph.copy())
            successor = SnapshotPublisher(
                service_b, control=first.control_name, grace_period=0.0
            )
            assert successor.owns_control is False
            assert successor.base == base
            assert successor.generation == 1  # inherited, not reset

            successor.publish()
            snap = reader.current()
            assert snap.generation == 2
            # The reader re-attached across the failover and answers
            # match the live service.
            vertices = sorted(graph.vertices())
            rng = random.Random(5)
            for _ in range(100):
                s, t = rng.choice(vertices), rng.choice(vertices)
                assert snap.query(s, t) == bidirectional_reachable(
                    graph, s, t
                )

            # Attach-mode close keeps the current generation linked for
            # the readers still serving from it.
            successor.close()
            assert reader.shutdown is False
            assert reader.current().generation == 2
            reader.close()
        finally:
            first.control.close()  # release the abandoned mapping
            sweep_family(base)

    def test_epoch_floor_keeps_epochs_monotonic(self, graph):
        service_a = ReachabilityService(graph.copy())
        # Advance the first service's epoch past a fresh service's.
        vertices = sorted(graph.vertices())
        for k in range(3):
            tail, head = vertices[2 * k], vertices[2 * k + 1]
            if not graph.has_edge(tail, head):
                service_a.insert_edge(tail, head)
        first = SnapshotPublisher(service_a, grace_period=0.0)
        base = first.base
        try:
            first.publish()
            inherited_epoch = first.control.epoch
            assert inherited_epoch > 0

            # The respawned writer rebuilt from the graph file: its
            # epoch restarts at 0, but connections that saw the old
            # epoch must never observe it go backwards.
            service_b = ReachabilityService(graph.copy())
            assert service_b.epoch < inherited_epoch
            successor = SnapshotPublisher(
                service_b, control=first.control_name, grace_period=0.0
            )
            successor.publish()
            assert successor.control.epoch >= inherited_epoch
            successor.close()
        finally:
            first.control.close()  # release the abandoned mapping
            sweep_family(base)

    def test_successor_reclaims_a_stranded_next_generation(self, graph):
        # A writer SIGKILLed mid-flip has already *created* the next
        # generation's segment but never flipped the control block to
        # name it.  The successor's first publish reuses that number —
        # it must reclaim the stranded name instead of crash-looping on
        # FileExistsError.
        service = ReachabilityService(graph.copy())
        first = SnapshotPublisher(service, grace_period=0.0)
        base = first.base
        try:
            first.publish()
            stranded = create_segment(segment_name(base, 2), 64)
            stranded.close()
            first.control._cells[0] += 1  # seqlock left odd, too
            successor = SnapshotPublisher(
                ReachabilityService(graph.copy()),
                control=first.control_name,
                grace_period=0.0,
            )
            assert successor.publish() == 2
            reader = SnapshotReader(successor.control_name)
            assert reader.current().generation == 2
            assert reader.current().query(0, 0) is True
            reader.close()
            successor.close()
        finally:
            first.control.close()  # release the abandoned mapping
            sweep_family(base)

    def test_successor_repairs_a_stalled_seqlock(self, graph):
        service = ReachabilityService(graph.copy())
        first = SnapshotPublisher(service, grace_period=0.0)
        base = first.base
        try:
            first.publish()
            # Kill "mid-flip": sequence left odd, triple half-written.
            first.control._cells[0] += 1
            successor = SnapshotPublisher(
                ReachabilityService(graph.copy()),
                control=first.control_name,
                grace_period=0.0,
            )
            assert successor.seqlock_repaired is True
            successor.publish()
            reader = SnapshotReader(successor.control_name)
            assert reader.current().generation >= 2
            reader.close()
            successor.close()
        finally:
            first.control.close()  # release the abandoned mapping
            sweep_family(base)


class TestStaleServe:
    def test_reader_falls_back_to_last_snapshot(self, plane):
        service, publisher, reader = plane
        snap = reader.current()
        assert snap.generation == 1
        # The control block names a generation whose segment does not
        # exist (writer died after the bump, janitor took the segment).
        publisher.control.write_snapshot(99, snap.epoch, snap.data_len)
        stale = reader.current()
        assert stale is snap
        assert reader.stale_serves == 1
        assert stale.age_ms() >= 0.0
        # Point the control block back; the reader recovers on its own.
        publisher.control.write_snapshot(
            1, snap.epoch, snap.data_len
        )
        assert reader.current().generation == 1

    def test_reader_with_no_snapshot_propagates(self, service):
        publisher = SnapshotPublisher(service, grace_period=0.0)
        reader = None
        try:
            reader = SnapshotReader(publisher.control_name)
            with pytest.raises(SnapshotUnavailableError):
                reader.current()  # nothing published yet
        finally:
            if reader is not None:
                reader.close()
            publisher.close()


class TestBackgroundThread:
    def test_start_republishes_on_epoch_change(self, service, graph):
        publisher = SnapshotPublisher(service, grace_period=30.0)
        reader = None
        try:
            publisher.publish()
            reader = SnapshotReader(publisher.control_name)
            publisher.start()
            vertices = sorted(graph.vertices())
            s, t = vertices[0], vertices[-1]
            if not graph.has_edge(s, t):
                service.insert_edge(s, t)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if reader.control.generation >= 2:
                    break
                time.sleep(0.02)
            assert reader.current().generation >= 2
        finally:
            if reader is not None:
                reader.close()
            publisher.close()

    def test_back_to_back_flushes_coalesce(self, service, graph):
        publisher = SnapshotPublisher(service, grace_period=30.0)
        try:
            publisher.publish()
            publisher.start()
            vertices = sorted(graph.vertices())
            pairs = [
                (s, t)
                for s in vertices
                for t in vertices
                if s < t and not graph.has_edge(s, t)
            ][:20]
            before = service.epoch
            # Holding the publish lock stands in for a publish in flight:
            # the thread wakes on the first flush and blocks in publish()
            # until the whole burst has landed.
            with publisher._lock:
                for s, t in pairs:
                    service.insert_edge(s, t)  # one batch, one epoch each
                final_epoch = service.epoch
                assert final_epoch == before + len(pairs)
                assert publisher.generation == 1
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if publisher.control.epoch == final_epoch:
                    break
                time.sleep(0.01)
            assert publisher.control.epoch == final_epoch
            time.sleep(0.1)  # room for a spurious extra publish to show
            # The blocked publish froze after the burst and covers all of it.
            assert publisher.health_section()["publishes"] == 2
            assert publisher.generation == 2
        finally:
            publisher.close()

    def test_thread_rests_as_long_as_the_last_publish_took(self, service, graph):
        freeze = service.freeze_snapshot
        starts = []

        def slow_freeze():
            starts.append(time.monotonic())
            time.sleep(0.1)
            return freeze()

        service.freeze_snapshot = slow_freeze
        publisher = SnapshotPublisher(service, grace_period=30.0)
        try:
            publisher.publish()
            publisher.start()
            vertices = sorted(graph.vertices())
            for k, want in ((1, 2), (2, 3)):
                service.insert_edge(vertices[k], vertices[-k])
                deadline = time.monotonic() + 5.0
                while publisher.control.generation < want:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
            # The second update landed right after the first publish; its
            # publish still waited out a rest as long as that publish.
            assert starts[2] - starts[1] >= 0.2
        finally:
            publisher.close()

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="nice is per thread on Linux"
    )
    def test_thread_runs_below_the_callers_priority(self, service):
        own = os.getpriority(os.PRIO_PROCESS, threading.get_native_id())
        publisher = SnapshotPublisher(service, grace_period=30.0)
        try:
            publisher.start()
            deadline = time.monotonic() + 5.0
            while publisher.generation < 1:  # the thread's first publish
                assert time.monotonic() < deadline
                time.sleep(0.005)
            tid = publisher._thread.native_id
            assert os.getpriority(os.PRIO_PROCESS, tid) == min(
                own + PUBLISH_NICE, 19
            )
            # The nice value is the thread's own: the caller keeps its.
            assert os.getpriority(
                os.PRIO_PROCESS, threading.get_native_id()
            ) == own
        finally:
            publisher.close()

    def test_concurrent_publishes_are_serialised(self, service, graph):
        publisher = SnapshotPublisher(service, grace_period=0.0)
        errors = []

        def publish_many():
            try:
                for _ in range(3):
                    publisher.publish()
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        vertices = sorted(graph.vertices())
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=publish_many) for _ in range(4)]
            for t in threads:
                t.start()
            for k in range(5):
                service.insert_edge(vertices[k], vertices[-1 - k])
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            publisher.publish()
            health = publisher.health_section()
            assert health["publishes"] == 13 == publisher.generation
            assert health["epoch"] == service.epoch
            assert health["segments_live"] == 1
            reader = SnapshotReader(publisher.control_name)
            assert reader.current().generation == 13
            reader.close()
        finally:
            sys.setswitchinterval(old)
            publisher.close()

    def test_degraded_flips_reach_readers_without_a_timer(self, service):
        # grace 30s: the thread's idle tick is 7.5s, so the flag can only
        # arrive within the deadline through the change signal.
        publisher = SnapshotPublisher(service, grace_period=30.0)
        try:
            publisher.publish()
            publisher.start()
            for flip, want in (
                (service.enter_degraded, True),
                (service.exit_degraded, False),
            ):
                flip()
                deadline = time.monotonic() + 2.0
                while time.monotonic() < deadline:
                    if publisher.control.degraded is want:
                        break
                    time.sleep(0.005)
                assert publisher.control.degraded is want
            assert publisher.health_section()["publishes"] == 1
        finally:
            publisher.close()

    def test_close_wakes_an_idle_thread(self, service):
        publisher = SnapshotPublisher(service, grace_period=30.0)
        publisher.publish()
        publisher.start()
        start = time.monotonic()
        publisher.close()
        assert time.monotonic() - start < 2.0
        assert not publisher._thread.is_alive()
