"""The untraced, served run: ``repro serve`` as a subprocess, driven over
TCP by :class:`repro.net.ReachabilityClient` connections from this one
process (at most two connections at a time).  The caller pins this
process, and so the server it spawns, to one CPU (see ``run.py``).

Phases of one run, in order:

1. boot the server ``SETUP_BOOTS`` times; each boot is timed from spawn
   until the port file appears, ``setup_s`` is their median, and the
   last one serves the rest of the run;
2. warm-up (cache filled, lazy label mirrors built), untimed;
3. the timed phase: on read workloads a closed loop on one connection
   for ``--seconds``, cycling over the generated requests; on churn the
   fixed update round, replayed ``passes`` times closed loop on one
   connection, each update waiting until a read on the other connection
   sees its epoch;
4. BFS check of a fixed sample on the final graph;
5. churn only: SIGKILL of the writer, which the supervisor respawns;
   the next update must be acknowledged, then the BFS check runs again;
6. teardown of the whole process tree and a shared-memory leak check.

Every distinct request of a run (a read batch, an update of the round)
is timed several times, and its cost is its fastest time: time the
shared host gave to other tenants while a request was in flight drops
out.  ``request_ms`` is the mean cost over the distinct requests; on read
workloads ``ops_per_s`` is their pairs over the sum of their costs.  On
churn ``ops_per_s`` is one over the mean of each update's fastest cycle,
from send until a read reply carries its epoch.  The percentiles and the
plain mean of every sample are printed.
"""

from __future__ import annotations

import collections
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.labeling import BYTES_PER_LABEL
from repro.core.ops import UpdateOp
from repro.errors import ReproError
from repro.graph.traversal import bidirectional_reachable
from repro.net.client import ReachabilityClient
from repro.net.portfile import read_port_file
from repro.shm.janitor import scan_orphans

from common import (
    BenchError,
    child_env,
    cmdline,
    fastest,
    kill_group,
    median,
    peak_rss_mb,
    percentile,
    process_tree,
    wait_group_gone,
)
from inputs import WARM_REQUESTS

HOST = "127.0.0.1"
SETUP_BOOTS = 3
BOOT_TIMEOUT = 120.0
#: How long an update may take to become visible to reads.
VISIBILITY_TIMEOUT = 10.0
#: Period of the reads that watch for updates to become visible, seconds.
POLL = 0.005
#: Client errors that a request can end in (structured or transport).
CLIENT_ERRORS = (ReproError, OSError)


@dataclass
class Tally:
    """Ops attempted and failed, for ``error_rate``; wrong BFS answers
    count as failed and are also tallied on their own."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list = field(default_factory=list)

    def add(self, attempted: int, failed: int, note: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(f"{note}: {failed}/{attempted} failed")


class ServerProc:
    """One ``repro serve`` process group."""

    def __init__(self, graph_path: Path, args, run_dir: Path, tag: str):
        self.run_dir = run_dir
        self.tag = tag
        self.port_file = run_dir / f"port-{tag}"
        wal = run_dir / f"wal-{tag}"
        self.argv = [
            sys.executable, "-m", "repro", "serve", str(graph_path),
            "--host", HOST, "--port", "0", "--port-file", str(self.port_file),
            *(a.replace("{wal}", str(wal)) for a in args),
        ]
        self.proc = None
        self.port = None

    def boot(self) -> float:
        """Spawn and wait for the port file; return the seconds taken."""
        log = open(self.run_dir / f"server-{self.tag}.log", "wb")
        start = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                self.argv, env=child_env(), cwd=self.run_dir,
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        finally:
            log.close()
        deadline = start + BOOT_TIMEOUT
        while True:
            port, _pid = read_port_file(self.port_file)
            if port:
                elapsed = time.perf_counter() - start
                self.port = port
                return elapsed
            if self.proc.poll() is not None:
                raise BenchError(
                    f"server {self.tag} exited with {self.proc.returncode} "
                    f"during boot; see {self.run_dir}/server-{self.tag}.log"
                )
            if time.perf_counter() > deadline:
                raise BenchError(f"server {self.tag} not ready in {BOOT_TIMEOUT}s")
            time.sleep(0.002)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def writer_pid(self) -> int:
        """The ``serve-writer`` child of a ``--workers`` server."""
        for pid in process_tree(self.pid):
            if "serve-writer" in cmdline(pid):
                return pid
        raise BenchError(f"server {self.tag} has no serve-writer process")

    def client(self, **kwargs) -> ReachabilityClient:
        return ReachabilityClient(HOST, self.port, **kwargs)

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL whatever is left."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        kill_group(self.proc.pid)
        self.proc.wait()
        if not wait_group_gone(self.proc.pid, 10.0):
            raise BenchError(f"server {self.tag} left processes behind")


# ----------------------------------------------------------------------
# Load loops
# ----------------------------------------------------------------------

def closed_loop(server: ServerProc, batches, stop_at: float, out: dict,
                count: int = 0) -> None:
    """Send batches back to back until *stop_at* (or *count* requests)."""
    samples, pairs, errors, sent = [], 0, 0, 0
    with server.client() as client:
        while (sent < count) if count else (time.perf_counter() < stop_at):
            i = sent % len(batches)
            sent += 1
            start = time.perf_counter()
            try:
                client.query_many(batches[i])
            except CLIENT_ERRORS:
                errors += 1
                continue
            samples.append((i, time.perf_counter() - start))
            pairs += len(batches[i])
    out.update(samples=samples, latencies=[t for _, t in samples],
               pairs=pairs, errors=errors, sent=sent, end=time.perf_counter())


def read_window(server: ServerProc, batches, seconds: float) -> dict:
    """Closed loop on one connection for *seconds*."""
    start = time.perf_counter()
    out: dict = {}
    closed_loop(server, batches, start + seconds, out)
    if not out["latencies"]:
        raise BenchError("no read request completed in the read window")
    out["seconds"] = out["end"] - start
    return out


def wait_visible(client: ReachabilityClient, batches, epoch: int,
                 reads: dict) -> float | None:
    """Read every ``POLL`` seconds until a reply carries *epoch* or later;
    return when that reply arrived (``None`` after the timeout)."""
    deadline = time.perf_counter() + VISIBILITY_TIMEOUT
    while time.perf_counter() < deadline:
        batch = batches[reads["sent"] % len(batches)]
        reads["sent"] += 1
        start = time.perf_counter()
        try:
            reply = client.query_many(batch)
        except CLIENT_ERRORS:
            reads["errors"] += 1
        else:
            now = time.perf_counter()
            reads["latencies"].append(now - start)
            if reply.epoch >= epoch:
                return now
        time.sleep(POLL)
    return None


def update_phase(server: ServerProc, ops, batches, passes: int = 1) -> dict:
    """The update round *passes* times, closed loop on one connection.

    After each acknowledged update (epoch e) the other connection reads
    every ``POLL`` seconds until a reply carries epoch e or later, and only
    then is the next update sent.  So every update starts with the
    previous one published and no read in flight, and none overlaps a
    snapshot publish; the wait is the update's visibility delay, to
    within ``POLL`` plus a read round trip.
    """
    reads = {"latencies": [], "errors": 0, "sent": 0}
    samples, cycles, visible, errors = [], [], [], 0
    with server.client() as client, server.client() as reader:
        expected = reader.query_many(batches[0]).epoch
        start = time.perf_counter()
        for i, op in [(i, op) for _ in range(passes) for i, op in enumerate(ops)]:
            sent = time.perf_counter()
            try:
                applied = client.apply(op)
            except CLIENT_ERRORS:
                errors += 1
                continue
            acked = time.perf_counter()
            samples.append((i, acked - sent))
            if applied != 1:
                errors += 1
                continue
            expected += 1  # each applied update moves the epoch by one
            seen = wait_visible(reader, batches, expected, reads)
            if seen is None:
                errors += 1
            else:
                visible.append(seen - acked)
                cycles.append((i, seen - sent))
        elapsed = time.perf_counter() - start
    return {
        "seconds": elapsed,
        "samples": samples,
        "latencies": [t for _, t in samples],
        "cycles": cycles,
        "visible": visible,
        "errors": errors,
        "read_latencies": reads["latencies"],
        "read_errors": reads["errors"],
        "read_sent": reads["sent"],
    }


# ----------------------------------------------------------------------
# Checks and recovery
# ----------------------------------------------------------------------

def bfs_check(server: ServerProc, graph, pairs) -> tuple[int, int]:
    """Ask the server for *pairs* and compare with BFS; return (wrong, errors)."""
    truth = [bidirectional_reachable(graph, s, t) for s, t in pairs]
    wrong = errors = 0
    with server.client() as client:
        for i in range(0, len(pairs), 64):
            chunk = pairs[i:i + 64]
            try:
                answers = client.query_many(chunk).results
            except CLIENT_ERRORS:
                errors += len(chunk)
                continue
            wrong += sum(a != b for a, b in zip(answers, truth[i:i + 64]))
    return wrong, errors


def index_bytes_per_vertex(server: ServerProc) -> float:
    with server.client() as client:
        index = client.health()["index"]
    return index["total_labels"] * BYTES_PER_LABEL / index["num_vertices"]


def failover(server: ServerProc, probe_op) -> float:
    """SIGKILL the writer of a ``--workers`` server; seconds until the
    respawned writer (recovered from checkpoint + WAL) acknowledges an
    update."""
    writer = server.writer_pid()
    deadline = time.perf_counter() + BOOT_TIMEOUT
    with server.client() as client:
        start = time.perf_counter()
        os.kill(writer, signal.SIGKILL)
        while True:
            try:
                client.apply(probe_op)
                return time.perf_counter() - start
            except CLIENT_ERRORS:
                if time.perf_counter() > deadline:
                    raise BenchError("writer did not recover")
                time.sleep(0.01)


def leaked_segments(before: set) -> list:
    """``repro-*`` families orphaned since *before* was taken (their
    owner is dead, or they have no control block)."""
    return sorted(set(scan_orphans(min_age=0.0)) - before)


def checked(tally: Tally, server: ServerProc, inputs, when: str) -> None:
    wrong, errors = bfs_check(server, inputs.graph, inputs.check_pairs)
    tally.add(len(inputs.check_pairs), wrong + errors, f"BFS check ({when})")
    tally.wrong += wrong


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------

def run(workload, inputs, seconds: int, run_dir: Path, log) -> dict:
    """Run one untraced, served measurement; return its result dict."""
    tally = Tally()
    orphans_before = set(scan_orphans(min_age=0.0))
    args = list(workload.server_args)
    setup, server = [], None
    try:
        for i in range(SETUP_BOOTS):
            if server is not None:
                server.stop()
            server = ServerProc(inputs.graph_path, args, run_dir, f"b{i}")
            setup.append(server.boot())
        log(f"setup_s samples: {', '.join(f'{x:.3f}' for x in setup)}")

        # Warm-up: fill the cache / materialise lazy label mirrors.
        warm = {}
        closed_loop(server, inputs.read_batches, 0.0, warm,
                    count=WARM_REQUESTS)
        tally.add(warm["sent"], warm["errors"], "warm-up")

        if workload.traffic == "churn":
            sent = len(inputs.ops) * inputs.passes
            phase = update_phase(server, inputs.ops, inputs.update_batches,
                                 inputs.passes)
            tally.add(sent, phase["errors"], "updates")
            tally.add(phase["read_sent"], phase["read_errors"], "reads")
            reads = phase["read_latencies"]
            log(f"updates: {len(phase['latencies'])}/{sent} acked in "
                f"{phase['seconds']:.2f}s; visible p50 "
                f"{median(phase['visible']) * 1e3:.1f}ms; {len(reads)} polled "
                f"reads beside them, p50 {median(reads) * 1e3:.2f}ms "
                f"p99 {percentile(reads, 99) * 1e3:.2f}ms")
            costs = fastest(phase["samples"])
            cycles = fastest(phase["cycles"])
            log("update costs, ack / cycle (ms): " + " ".join(
                f"{costs[i] * 1e3:.0f}/{cycles[i] * 1e3:.0f}" for i in sorted(cycles)))
            ops_per_s = 1 / statistics.fmean(cycles.values())
        else:
            phase = read_window(server, inputs.read_batches, seconds)
            tally.add(phase["sent"], phase["errors"], "read window")
            log(f"read window: {phase['sent']} requests, {phase['pairs']} pairs "
                f"in {phase['seconds']:.2f}s, "
                f"{phase['pairs'] / phase['seconds']:.1f} pairs/s")
            costs = fastest(phase["samples"])
            pairs = sum(len(inputs.read_batches[i]) for i in costs)
            ops_per_s = pairs / sum(costs.values())
        lat = phase["latencies"]
        log(f"latency per request: p50 {median(lat) * 1e3:.3f}ms, p90 "
            f"{percentile(lat, 90) * 1e3:.3f}ms, p99 "
            f"{percentile(lat, 99) * 1e3:.3f}ms, mean "
            f"{statistics.fmean(lat) * 1e3:.3f}ms over {len(lat)} requests; "
            f"{len(costs)} distinct, each timed at least "
            f"{min(collections.Counter(i for i, _ in phase['samples']).values())}"
            f" times")
        metrics = {
            "setup_s": median(setup),
            "ops_per_s": ops_per_s,
            "request_ms": statistics.fmean(costs.values()) * 1e3,
            # After churn the graph is the input graph again, but the
            # re-inserted vertices carry the labels insertion gave them.
            "index_bytes_per_vertex": index_bytes_per_vertex(server),
            "rss_mb": peak_rss_mb(server.pid),
        }
        checked(tally, server, inputs, "final")

        if workload.traffic == "churn":
            # A fresh isolated vertex: the check sample never touches it.
            probe = UpdateOp.insert_vertex(inputs.probe_vertex)
            log(f"writer failover: {failover(server, probe):.3f}s to the next ack")
            tally.add(1, 0)
            checked(tally, server, inputs, "recovered")
    finally:
        if server is not None:
            server.stop()
    leaks = leaked_segments(orphans_before)
    if leaks:
        tally.add(0, 1, f"leaked shm segment families {leaks}")
    return {"metrics": metrics, "tally": tally}
