"""Process-level chaos: the fault matrix from docs/robustness.md, live.

Every test here boots the real multi-process assembly (``repro serve
--workers``) and injects one fault from :data:`repro.net.chaos.SCENARIOS`
— either deterministically inside the writer via ``REPRO_CHAOS`` (the
kill lands at an exact crash point, not "roughly now"), or from outside
with a signal.  Three invariants hold across the whole matrix:

* **zero wrong answers** — a monotone BFS oracle bounds every reply:
  pairs reachable in the initial graph must answer ``True`` forever,
  pairs unreachable even after every planned insert must answer
  ``False`` forever, no matter which WAL suffix survived the crash;
* **reads keep flowing** — snapshot-plane queries succeed during the
  writer outage (bounded-staleness mode), only forwarded ops degrade
  to structured ``writer_unavailable`` errors;
* **bounded recovery, zero leaks** — the supervisor respawns the dead
  writer within the scenario bound, and no ``/dev/shm`` segment
  outlives its assembly (graceful sweep or boot-time janitor).
"""

import os
import signal
import threading
import time

import pytest

from repro.errors import ReproError, WriterUnavailableError
from repro.graph.traversal import bidirectional_reachable
from repro.net.chaos import CHAOS_ENV, SPENT_ENV
from repro.net.client import ReachabilityClient
from repro.net.loadgen import spawned_server
from repro.core.ops import UpdateOp
from repro.shm.control import pid_alive
from repro.shm.janitor import list_families, reap_orphans

WORKERS_ARGS = ["--workers", "2"]

#: How long a writer failover may take end to end (SIGKILL detection,
#: respawn, WAL replay, republish) before the test calls it stuck.
RECOVERY_S = 45.0


def non_edges(graph, count):
    vertices = sorted(graph.vertices())
    out = []
    for tail in vertices:
        for head in vertices:
            if tail != head and not graph.has_edge(tail, head):
                out.append((tail, head))
                if len(out) == count:
                    return out
    return out


def reachable_pairs(graph, count):
    """Pairs reachable in *graph* — inserts can never falsify them."""
    vertices = sorted(graph.vertices())
    out = []
    for s in vertices:
        for t in vertices:
            if s != t and bidirectional_reachable(graph, s, t):
                out.append((s, t))
                if len(out) == count:
                    return out
    return out


def unreachable_pairs(graph, count):
    """Pairs unreachable in *graph* — compute against the fully mutated
    graph and no surviving insert prefix can make them ``True``."""
    vertices = sorted(graph.vertices())
    out = []
    for s in reversed(vertices):
        for t in vertices:
            if s != t and not bidirectional_reachable(graph, s, t):
                out.append((s, t))
                if len(out) == count:
                    return out
    return out


def chaos_env(spec, marker):
    """Environment for :func:`spawned_server` arming *spec* one-shot."""
    env = dict(os.environ)
    env[CHAOS_ENV] = spec
    env[SPENT_ENV] = str(marker)
    return env


def writer_stats(host, port):
    """One uncached ``stats`` round trip (forwarded to the writer)."""
    with ReachabilityClient(host, port, timeout=5.0, retries=0) as client:
        return client._call({"op": "stats"})


def wait_for_writer(host, port, *, not_pid=0, deadline_s=RECOVERY_S):
    """Poll until a live writer whose pid differs from *not_pid* answers."""
    deadline = time.monotonic() + deadline_s
    last = None
    while time.monotonic() < deadline:
        try:
            stats = writer_stats(host, port)
            pid = stats.get("writer_pid", 0)
            if pid > 0 and pid != not_pid:
                return pid, stats
        except (ReproError, OSError) as exc:
            last = exc
        time.sleep(0.05)
    raise AssertionError(
        f"no fresh writer answered within {deadline_s}s (last: {last!r})"
    )


class OracleProber(threading.Thread):
    """Continuously replay the oracle probes from a side thread.

    Forwarded ops in the main thread can block for a forward-timeout
    while the writer is a fresh corpse; this thread keeps snapshot-plane
    reads flowing right through that window, recording any wrong
    answer, any read error, and how many replies carried the
    bounded-staleness stamp.
    """

    def __init__(self, host, port, probes, expected):
        super().__init__(name="oracle-prober", daemon=True)
        self.host = host
        self.port = port
        self.probes = probes
        self.expected = expected
        self.wrong = []
        self.read_errors = []
        self.stale_replies = 0
        self.replies = 0
        self._halt = threading.Event()

    def run(self):
        while not self._halt.is_set():
            try:
                with ReachabilityClient(
                    self.host, self.port, timeout=10.0, retries=0
                ) as client:
                    reply = client.query_many(self.probes)
            except (ReproError, OSError) as exc:
                self.read_errors.append(repr(exc))
                time.sleep(0.01)
                continue
            self.replies += 1
            if reply.results != self.expected:
                self.wrong.append(reply.results)
                return
            if reply.stale_ms is not None:
                self.stale_replies += 1
            time.sleep(0.005)

    def finish(self):
        self._halt.set()
        self.join(timeout=15)


def wait_for_results(host, port, pairs, expected, *, deadline_s=30.0):
    """Poll queries until the snapshot plane converges on *expected*."""
    deadline = time.monotonic() + deadline_s
    while True:
        with ReachabilityClient(host, port, timeout=10.0) as client:
            reply = client.query_many(pairs)
        if reply.results == expected or time.monotonic() > deadline:
            return reply
        time.sleep(0.1)


@pytest.mark.slow
class TestKillWriterMidBatch:
    """SCENARIOS['kill-writer-mid-batch']: SIGKILL between WAL append
    and index apply, injected at the ``service.apply`` crash point."""

    def test_wal_replay_and_monotone_answers(self, graph, graph_file,
                                             tmp_path):
        edges = non_edges(graph, 6)
        mutated = graph.copy()
        for tail, head in edges:
            mutated.add_edge(tail, head)
        always_true = reachable_pairs(graph, 6)
        always_false = unreachable_pairs(mutated, 6)
        probes = always_true + always_false
        expected = [True] * len(always_true) + [False] * len(always_false)

        marker = tmp_path / "chaos-spent"
        env = chaos_env("service.apply:kill:after=2", marker)
        args = [*WORKERS_ARGS, "--wal", str(tmp_path / "wal")]
        with spawned_server(graph_file, server_args=args, env=env) as server:
            first_pid, _ = wait_for_writer(server.host, server.port)

            # The prober hammers the monotone oracle from a side thread
            # for the whole fault — the apply stream below can block
            # for a forward-timeout on the freshly dead writer, and the
            # outage must be observed by *reads*, not spent hidden
            # inside a hanging forward.
            prober = OracleProber(server.host, server.port, probes,
                                  expected)
            prober.start()
            try:
                # Stream the inserts.  Acks precede the batch apply —
                # the writer WAL-appends and admits, a background batch
                # loop applies, and the second applied op SIGKILLs it —
                # so ops refused during the outage are resent until the
                # respawned writer takes them.
                accepted = [False] * len(edges)
                new_pid = None
                stats = None
                deadline = time.monotonic() + RECOVERY_S
                while not (all(accepted) and new_pid is not None):
                    assert time.monotonic() < deadline, \
                        "writer never recovered"
                    for i, (tail, head) in enumerate(edges):
                        if accepted[i]:
                            continue
                        try:
                            with ReachabilityClient(
                                server.host, server.port,
                                timeout=10.0, retries=0,
                            ) as client:
                                client.apply(
                                    UpdateOp.insert_edge(tail, head)
                                )
                            accepted[i] = True
                        except (ReproError, OSError):
                            pass
                    if new_pid is None:
                        try:
                            stats = writer_stats(server.host, server.port)
                            pid = stats.get("writer_pid", 0)
                            if pid > 0 and pid != first_pid:
                                new_pid = pid
                        except (ReproError, OSError):
                            pass
                    time.sleep(0.02)
            finally:
                prober.finish()

            assert marker.exists(), "the armed kill never fired"
            assert new_pid is not None, "writer never respawned"
            assert stats["writer_restarts"] >= 1
            # Zero wrong answers, zero read errors, and the outage was
            # actually visible as bounded-staleness replies.
            assert prober.wrong == []
            assert prober.read_errors == []
            assert prober.replies > 0
            assert prober.stale_replies >= 1, \
                "no bounded-staleness reply seen in outage"

            # Acknowledged ops survived the crash: every insert is
            # eventually visible through the snapshot plane.
            reply = wait_for_results(
                server.host, server.port, edges, [True] * len(edges)
            )
            assert reply.results == [True] * len(edges)
            assert server.terminate() == 0


@pytest.mark.slow
class TestKillPublisherMidFlip:
    """SCENARIOS['kill-publisher-mid-flip']: SIGKILL while the seqlock
    sequence is odd — the narrowest window a writer death can leave
    readers stalled in."""

    def test_seqlock_repair_and_stale_serve(self, graph, graph_file,
                                            tmp_path):
        tail, head = non_edges(graph, 1)[0]
        mutated = graph.copy()
        mutated.add_edge(tail, head)
        always_true = reachable_pairs(graph, 4)
        always_false = unreachable_pairs(mutated, 4)
        probes = always_true + always_false
        expected = [True] * len(always_true) + [False] * len(always_false)

        marker = tmp_path / "chaos-spent"
        # after=2: flip #1 is the boot publish (dying there aborts the
        # whole boot by design); flip #2 is the republish our update
        # triggers — the mid-flight window that matters.
        env = chaos_env("shm.publish.flip:kill:after=2", marker)
        args = [*WORKERS_ARGS, "--wal", str(tmp_path / "wal")]
        with spawned_server(graph_file, server_args=args, env=env) as server:
            first_pid, _ = wait_for_writer(server.host, server.port)
            with ReachabilityClient(server.host, server.port) as client:
                try:
                    client.apply(UpdateOp.insert_edge(tail, head))
                except WriterUnavailableError:
                    # The kill can land before the writer's reply leaves.
                    # The insert was logged before the flip, and the
                    # reader never re-sends an update whose reply was
                    # lost; the WAL check below still demands it.
                    pass

            # The publish thread picks up the epoch change within 50ms
            # and dies mid-flip.  Readers must keep answering from the
            # last consistent generation the entire time.
            new_pid = None
            deadline = time.monotonic() + RECOVERY_S
            while time.monotonic() < deadline:
                with ReachabilityClient(
                    server.host, server.port, timeout=10.0
                ) as client:
                    assert client.query_many(probes).results == expected
                try:
                    stats = writer_stats(server.host, server.port)
                    pid = stats.get("writer_pid", 0)
                    if pid > 0 and pid != first_pid:
                        new_pid = pid
                        break
                except (ReproError, OSError):
                    pass
                time.sleep(0.05)

            assert marker.exists(), "the armed kill never fired"
            assert new_pid is not None, "writer never respawned"

            with ReachabilityClient(server.host, server.port) as client:
                snapshot = client.health()["snapshot"]
            assert snapshot["seqlock_repaired"] is True
            assert snapshot["writer_restarts"] >= 1

            # The insert survived via the WAL and made it into the
            # successor's snapshot.
            reply = wait_for_results(
                server.host, server.port, [(tail, head)], [True]
            )
            assert reply.results == [True]
            assert server.terminate() == 0


@pytest.mark.slow
class TestStallPublisher:
    """SCENARIOS['stall-publisher']: a SIGSTOPped writer is alive but
    wedged — forwards must time out into ``writer_unavailable`` within
    the forward timeout, snapshot reads continue, SIGCONT heals without
    a restart."""

    def test_forwards_degrade_reads_continue(self, graph, graph_file):
        args = [*WORKERS_ARGS, "--forward-timeout", "1.0"]
        probes = reachable_pairs(graph, 3) + unreachable_pairs(graph, 3)
        expected = [True] * 3 + [False] * 3
        with spawned_server(graph_file, server_args=args) as server:
            pid, _ = wait_for_writer(server.host, server.port)
            os.kill(pid, signal.SIGSTOP)
            try:
                with ReachabilityClient(
                    server.host, server.port, timeout=15.0, retries=0
                ) as client:
                    # Snapshot reads are unaffected by the stall.
                    assert client.query_many(probes).results == expected
                    # Forwards hit the 1s timeout (×2: one reconnect
                    # attempt inside the worker) and come back as a
                    # structured retryable error, not a hang.
                    start = time.monotonic()
                    with pytest.raises(WriterUnavailableError) as excinfo:
                        client._call({"op": "stats"})
                    assert time.monotonic() - start < 10.0
                    assert excinfo.value.retry_after_ms > 0
            finally:
                os.kill(pid, signal.SIGCONT)

            # Healed in place: same pid, no supervisor restart.
            healed_pid, stats = wait_for_writer(server.host, server.port)
            assert healed_pid == pid
            assert stats["writer_restarts"] == 0
            assert server.terminate() == 0


@pytest.mark.slow
class TestNoLeakedSegments:
    """A kill-loop must leak nothing: graceful shutdown sweeps the
    family; a SIGKILLed supervisor's family is reaped at the next
    janitor pass."""

    def test_writer_kill_loop_then_clean_sweep(self, graph, graph_file,
                                               tmp_path):
        args = [*WORKERS_ARGS, "--wal", str(tmp_path / "wal")]
        before = set(list_families())
        with spawned_server(graph_file, server_args=args) as server:
            pid, _ = wait_for_writer(server.host, server.port)
            created = set(list_families()) - before
            assert len(created) == 1
            for round_no in (1, 2):
                os.kill(pid, signal.SIGKILL)
                pid, stats = wait_for_writer(
                    server.host, server.port, not_pid=pid
                )
                assert stats["writer_restarts"] == round_no
            pairs = reachable_pairs(graph, 3) + unreachable_pairs(graph, 3)
            with ReachabilityClient(server.host, server.port) as client:
                reply = client.query_many(pairs)
            assert reply.results == [True] * 3 + [False] * 3
            assert server.terminate() == 0
        # Two failovers' worth of segments, all swept on shutdown.
        assert set(list_families()) & created == set()

    def test_sigkilled_supervisor_is_reaped_at_next_boot(self, graph,
                                                         graph_file):
        before = set(list_families())
        with spawned_server(graph_file,
                            server_args=WORKERS_ARGS) as server:
            _, stats = wait_for_writer(server.host, server.port)
            child_pids = [w["pid"] for w in stats["workers"]]
            child_pids.append(stats["writer_pid"])
            created = set(list_families()) - before
            assert len(created) == 1
            os.kill(server.proc.pid, signal.SIGKILL)
            server.proc.wait(timeout=10)

        # The ppid watchdogs notice the orphaning and the children exit
        # on their own — nothing is left to signal them.
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline and any(
            pid_alive(p) for p in child_pids
        ):
            time.sleep(0.1)
        assert not any(pid_alive(p) for p in child_pids)

        # The janitor pass every boot runs clears the dead assembly.
        # min_age=0 because the dead supervisor's resource tracker may
        # already have unlinked the control block (its crash backstop),
        # leaving a control-less family the default age gate defers.
        reap_orphans(min_age=0.0)
        assert set(list_families()) & created == set()
