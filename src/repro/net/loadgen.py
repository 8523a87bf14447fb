"""Multi-process load generator for the network serving subsystem.

Drives N independent **client processes** (real processes, not threads —
the point is to stress the server from outside its GIL) against a
running :mod:`repro.net` server.  Each worker owns one socket and one
seeded :class:`~repro.bench.workloads.ZipfianPairSource` and sends
query batches back-to-back until its deadline; the parent merges the
per-worker reports into one report — aggregate qps, p50/p99 request
latency, shed/error counts — and can write it as a ``BENCH_serve.json``
artifact.

Two extras make the harness a correctness tool, not just a stopwatch:

* ``verify=True`` checks every admitted answer against a bidirectional
  BFS oracle over the same graph inside the worker, so an overload run
  demonstrates the admission-control contract: shed requests get a
  structured ``overloaded`` error while *admitted* ones stay correct;
* :func:`spawned_server` boots ``repro serve`` as a real subprocess
  (fresh interpreter, own signal handling) and tears it down with
  SIGTERM — which is also how the graceful-drain path gets exercised
  end-to-end in CI.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

from ..errors import (
    CircuitOpenError,
    DeadlineExceededError,
    NetworkError,
    OverloadedError,
    ReproError,
    WriterUnavailableError,
)
from .protocol import PROTOCOL_VERSION

__all__ = [
    "run_loadgen",
    "spawned_server",
    "SpawnedServer",
    "write_bench_json",
    "percentile",
    "CHAOS_MODES",
]

#: Per-worker cap on retained latency samples (reservoir-free: beyond
#: this, new samples stop being recorded and the count is flagged).
MAX_LATENCY_SAMPLES = 200_000

#: Chaos legs the parent can inject mid-run (``chaos=`` / ``--chaos``).
CHAOS_MODES = ("kill-writer",)

#: Width of the error-timeline buckets (seconds).  Outage windows are
#: measured against these, so the recovery-time resolution is one bucket.
BUCKET_S = 0.1


def _bucket_key(now: float) -> int:
    return int(now / BUCKET_S)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted non-empty list."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 1:
        raise ValueError(f"q must be in (0, 1], got {q}")
    rank = max(1, int(q * len(sorted_values) + 0.999999))
    return sorted_values[min(rank, len(sorted_values)) - 1]


# ----------------------------------------------------------------------
# The worker (runs in a child process; keep everything picklable)
# ----------------------------------------------------------------------

def _worker_main(cfg: dict, out_queue) -> None:
    """One client process: Zipfian batches until the deadline."""
    from ..bench.workloads import ZipfianPairSource
    from .client import ReachabilityClient

    report = {
        "worker": cfg["worker"],
        "queries": 0,
        "requests": 0,
        "shed": 0,
        "errors": 0,
        "unavailable": 0,
        "stale_replies": 0,
        "degraded_replies": 0,
        "verify_failures": 0,
        "latencies": [],
        "shed_latencies": [],
        "buckets": {},
        "elapsed": 0.0,
        "fatal": None,
    }
    oracle = None
    oracle_cache: dict = {}
    if cfg.get("verify_edges") is not None:
        from ..graph.digraph import DiGraph
        from ..graph.traversal import forward_reachable

        graph = DiGraph()
        for v in cfg["vertices"]:
            graph.add_vertex(v)
        for tail, head in cfg["verify_edges"]:
            graph.add_edge(tail, head)

        # Cache the full descendant set per *source*: a Zipf-skewed
        # stream revisits head sources constantly, so one BFS per
        # source amortizes to a set-membership probe per pair — the
        # oracle must stay much cheaper than the server under test or
        # the measured qps is the harness, not the server.
        def oracle(s, t):
            reach = oracle_cache.get(s)
            if reach is None:
                # include_source: the server answers query(v, v) True.
                reach = oracle_cache[s] = forward_reachable(
                    graph, s, include_source=True
                )
            return t in reach

    try:
        source = ZipfianPairSource(
            cfg["vertices"], skew=cfg["skew"], seed=cfg["seed"]
        )
        client = ReachabilityClient(
            cfg["host"], cfg["port"], timeout=cfg["timeout"]
        )
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        report["fatal"] = f"{type(exc).__name__}: {exc}"
        out_queue.put(report)
        return

    latencies = report["latencies"]
    shed_latencies = report["shed_latencies"]
    buckets = report["buckets"]

    def record(outcome_ok: bool) -> None:
        # 100ms availability timeline keyed by *wall-clock* bucket so
        # the parent can line every worker up against its chaos events.
        cell = buckets.setdefault(_bucket_key(time.time()), [0, 0])
        cell[0 if outcome_ok else 1] += 1

    start = time.monotonic()
    deadline = start + cfg["duration"]
    try:
        with client:
            while time.monotonic() < deadline:
                pairs = source.pairs(cfg["batch"])
                report["requests"] += 1
                t0 = time.perf_counter()
                try:
                    reply = client.query_many(pairs)
                except OverloadedError as exc:
                    # A shed reply is still a request the client waited
                    # on — its round-trip belongs in the headline
                    # percentiles, or overload runs under-report p99.
                    if len(shed_latencies) < MAX_LATENCY_SAMPLES:
                        shed_latencies.append(time.perf_counter() - t0)
                    report["shed"] += 1
                    # Shedding is admission control *working*, so it
                    # counts as available in the timeline.
                    record(True)
                    # Back off by the server's hint, capped so the
                    # flood keeps flooding during overload runs.
                    time.sleep(min(exc.retry_after_ms / 1e3, 0.02))
                    continue
                except (
                    WriterUnavailableError,
                    CircuitOpenError,
                    DeadlineExceededError,
                ) as exc:
                    # The serving plane said "not right now" — the
                    # chaos legs measure exactly these.
                    report["unavailable"] += 1
                    record(False)
                    hint = getattr(exc, "retry_after_ms", 10.0)
                    time.sleep(min(hint / 1e3, 0.05))
                    continue
                except ReproError:
                    report["errors"] += 1
                    record(False)
                    continue
                if len(latencies) < MAX_LATENCY_SAMPLES:
                    latencies.append(time.perf_counter() - t0)
                record(True)
                report["queries"] += len(reply.results)
                if reply.degraded:
                    report["degraded_replies"] += 1
                if reply.stale_ms is not None:
                    report["stale_replies"] += 1
                if oracle is not None:
                    for (s, t), got in zip(pairs, reply.results):
                        if got != oracle(s, t):
                            report["verify_failures"] += 1
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        report["fatal"] = f"{type(exc).__name__}: {exc}"
    report["elapsed"] = time.monotonic() - start
    out_queue.put(report)


# ----------------------------------------------------------------------
# The parent orchestration
# ----------------------------------------------------------------------

def _chaos_kill_writer(
    host: str, port: int, duration: float, events: dict
) -> None:
    """Parent-side chaos leg: SIGKILL the writer mid-run, then poll the
    (forwarded) ``stats`` op until a *new* writer pid answers.

    Writes its observations into *events*: ``killed_pid`` / ``kill_at``
    when the kill lands, ``recovered_at`` / ``new_pid`` when the
    respawned writer answers, ``error`` if the leg could not run (e.g.
    the target is a single-process server with no writer subprocess).
    """
    import signal as _signal

    from .client import ReachabilityClient

    try:
        with ReachabilityClient(host, port, timeout=5.0) as probe:
            pid = probe._call({"op": "stats"}).get("writer_pid")
            if not pid:
                events["error"] = (
                    "server reported no writer_pid — chaos kill-writer "
                    "needs a multi-process (--workers) server"
                )
                return
            # Let the load reach steady state before pulling the plug.
            time.sleep(max(0.2, duration / 3.0))
            os.kill(int(pid), _signal.SIGKILL)
            events["killed_pid"] = int(pid)
            events["kill_at"] = time.time()
            deadline = time.monotonic() + duration + 30.0
            while time.monotonic() < deadline:
                try:
                    new_pid = probe._call({"op": "stats"}).get("writer_pid")
                except (ReproError, OSError):
                    new_pid = None  # writer_unavailable — still down
                if new_pid and int(new_pid) != int(pid):
                    events["recovered_at"] = time.time()
                    events["new_pid"] = int(new_pid)
                    return
                time.sleep(0.05)
    except Exception as exc:  # noqa: BLE001 - reported in the artifact
        events["error"] = f"{type(exc).__name__}: {exc}"


def run_loadgen(
    host: str,
    port: int,
    graph,
    *,
    clients: int = 4,
    duration: float = 5.0,
    batch: int = 16,
    skew: float = 1.1,
    seed: int = 0,
    verify: bool = False,
    timeout: float = 30.0,
    chaos: Optional[str] = None,
) -> dict:
    """Drive *clients* worker processes against ``host:port``.

    *graph* is the :class:`~repro.graph.digraph.DiGraph` the server was
    started on — the workers draw query endpoints from its vertex set
    (and, with ``verify=True``, check answers against BFS over it).

    *chaos* names a fault leg from :data:`CHAOS_MODES` the parent
    injects mid-run — ``"kill-writer"`` SIGKILLs the server's writer
    subprocess a third of the way in and measures the error rate during
    the outage plus the time until a respawned writer answers again.

    Returns the merged result dict (see :func:`write_bench_json` for the
    artifact shape).  Raises :class:`~repro.errors.NetworkError` if any
    worker died before completing its run.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if chaos is not None and chaos not in CHAOS_MODES:
        raise ValueError(
            f"unknown chaos mode {chaos!r}; expected one of {CHAOS_MODES}"
        )
    vertices = list(graph.vertices())
    edges = list(graph.edges()) if verify else None

    ctx = multiprocessing.get_context("spawn")
    out_queue = ctx.Queue()
    procs = []
    wall_start = time.monotonic()
    for i in range(clients):
        cfg = {
            "worker": i,
            "host": host,
            "port": port,
            "seed": seed * 10_007 + i,
            "duration": duration,
            "batch": batch,
            "skew": skew,
            "vertices": vertices,
            "verify_edges": edges,
            "timeout": timeout,
        }
        proc = ctx.Process(
            target=_worker_main, args=(cfg, out_queue), daemon=True
        )
        proc.start()
        procs.append(proc)

    chaos_events: dict = {}
    chaos_thread = None
    if chaos == "kill-writer":
        import threading

        chaos_thread = threading.Thread(
            target=_chaos_kill_writer,
            args=(host, port, duration, chaos_events),
            name="loadgen-chaos",
            daemon=True,
        )
        chaos_thread.start()

    reports = []
    join_deadline = time.monotonic() + duration + max(60.0, timeout)
    try:
        for _ in procs:
            remaining = join_deadline - time.monotonic()
            if remaining <= 0:
                raise NetworkError("load-generator workers timed out")
            reports.append(out_queue.get(timeout=remaining))
    finally:
        for proc in procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
    if chaos_thread is not None:
        chaos_thread.join(timeout=45.0)
    wall = time.monotonic() - wall_start

    fatal = [r for r in reports if r["fatal"]]
    if fatal:
        details = "; ".join(
            f"worker {r['worker']}: {r['fatal']}" for r in fatal
        )
        raise NetworkError(f"load-generator worker(s) failed: {details}")

    admitted_latencies = sorted(
        lat for r in reports for lat in r["latencies"]
    )
    merged_latencies = sorted(
        admitted_latencies
        + [lat for r in reports for lat in r["shed_latencies"]]
    )
    totals = {
        key: sum(r[key] for r in reports)
        for key in (
            "queries", "requests", "shed", "errors", "unavailable",
            "stale_replies", "degraded_replies", "verify_failures",
        )
    }
    # Availability: the fraction of requests that got *an answer* —
    # admitted replies and structured sheds both count; transport
    # errors, deadline misses and writer_unavailable do not.
    failed = totals["errors"] + totals["unavailable"]
    availability = (
        1.0 - failed / totals["requests"] if totals["requests"] else None
    )
    # Merge the per-worker 100ms timelines (wall-clock bucket -> counts)
    # so chaos legs can cut an outage window across all clients.
    merged_buckets: dict = {}
    for r in reports:
        for key, (ok, bad) in r["buckets"].items():
            cell = merged_buckets.setdefault(int(key), [0, 0])
            cell[0] += ok
            cell[1] += bad

    chaos_result = None
    if chaos is not None:
        chaos_result = {"mode": chaos, "recovered": False}
        if "error" in chaos_events:
            chaos_result["error"] = chaos_events["error"]
        if "kill_at" in chaos_events:
            kill_at = chaos_events["kill_at"]
            recovered_at = chaos_events.get("recovered_at")
            chaos_result["killed_pid"] = chaos_events["killed_pid"]
            chaos_result["recovered"] = recovered_at is not None
            chaos_result["new_pid"] = chaos_events.get("new_pid")
            chaos_result["time_to_recovery_s"] = (
                round(recovered_at - kill_at, 3)
                if recovered_at is not None else None
            )
            first = _bucket_key(kill_at)
            last = _bucket_key(
                recovered_at if recovered_at is not None else time.time()
            )
            window = [
                cell for key, cell in merged_buckets.items()
                if first <= key <= last
            ]
            outage_requests = sum(ok + bad for ok, bad in window)
            outage_errors = sum(bad for _, bad in window)
            chaos_result["outage_requests"] = outage_requests
            chaos_result["outage_errors"] = outage_errors
            chaos_result["error_rate_during_outage"] = (
                outage_errors / outage_requests if outage_requests else None
            )
    # Workers run concurrently for the same window, so the aggregate
    # rate is the sum of per-worker rates (not total / parent wall,
    # which would charge process-spawn overhead to the server).
    qps = sum(
        r["queries"] / r["elapsed"] for r in reports if r["elapsed"] > 0
    )
    def _summary(sorted_ms):
        return {
            "p50": 1e3 * percentile(sorted_ms, 0.50),
            "p99": 1e3 * percentile(sorted_ms, 0.99),
            "mean": 1e3 * sum(sorted_ms) / len(sorted_ms),
            "max": 1e3 * sorted_ms[-1],
        }

    # Headline percentiles cover every request the client waited on —
    # shed replies included (a shed round-trip is latency the caller
    # paid).  The admitted-only view and the p99 delta are kept so
    # overload runs show how much shedding moved the headline.
    latency_ms = _summary(merged_latencies) if merged_latencies else None
    latency_ms_admitted = (
        _summary(admitted_latencies) if admitted_latencies else None
    )
    shed_p99_delta_ms = None
    if latency_ms is not None and latency_ms_admitted is not None:
        shed_p99_delta_ms = latency_ms["p99"] - latency_ms_admitted["p99"]

    # Best-effort server-side view: a multi-process server's stats op
    # carries the per-worker snapshot-plane breakdown (requests served
    # inline vs forwarded, attached generation/epoch); classic servers
    # simply lack the field and the artifact records ``None``.
    server_workers = None
    try:
        from .client import ReachabilityClient

        with ReachabilityClient(host, port, timeout=10.0) as client:
            server_workers = client._call({"op": "stats"}).get("workers")
    except (ReproError, OSError):
        pass
    return {
        "benchmark": "serve",
        "protocol_version": PROTOCOL_VERSION,
        "host": host,
        "port": port,
        "clients": clients,
        "duration_s": duration,
        "batch": batch,
        "skew": skew,
        "seed": seed,
        "verified": verify,
        "graph": {
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
        },
        "totals": totals,
        "availability": availability,
        "chaos": chaos_result,
        "qps": qps,
        "latency_ms": latency_ms,
        "latency_ms_admitted": latency_ms_admitted,
        "shed_p99_delta_ms": shed_p99_delta_ms,
        "server_workers": server_workers,
        "wall_s": wall,
        "per_client": [
            {
                k: v
                for k, v in r.items()
                if k not in ("latencies", "shed_latencies", "buckets",
                             "fatal")
            }
            for r in reports
        ],
    }


def write_bench_json(result: dict, path) -> Path:
    """Write the loadgen result as the ``BENCH_serve.json`` artifact."""
    path = Path(path)
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# Spawning a real server subprocess
# ----------------------------------------------------------------------

class SpawnedServer:
    """Handle on a ``repro serve`` subprocess started by :func:`spawned_server`."""

    def __init__(self, proc: subprocess.Popen, host: str, port: int) -> None:
        self.proc = proc
        self.host = host
        self.port = port

    def terminate(self, timeout: float = 15.0) -> int:
        """SIGTERM the server (graceful drain) and return its exit code."""
        import signal

        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()


@contextmanager
def spawned_server(
    graph_path,
    *,
    server_args=(),
    startup_timeout: float = 60.0,
    env: Optional[dict] = None,
):
    """Boot ``repro serve`` on *graph_path* as a subprocess; yield a handle.

    The server binds an ephemeral port and writes it to a temp
    ``--port-file``; this waits for the file, then yields a
    :class:`SpawnedServer`.  On exit the server gets SIGTERM — the
    graceful-drain path — and is killed only if it ignores it.
    """
    import repro

    src_root = str(Path(repro.__file__).resolve().parent.parent)
    child_env = dict(os.environ if env is None else env)
    existing = child_env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        child_env["PYTHONPATH"] = (
            src_root + (os.pathsep + existing if existing else "")
        )

    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        port_file = Path(tmp) / "port"
        cmd = [
            sys.executable, "-m", "repro", "serve", str(graph_path),
            "--host", "127.0.0.1", "--port", "0",
            "--port-file", str(port_file),
            *server_args,
        ]
        proc = subprocess.Popen(cmd, env=child_env)
        handle = None
        try:
            deadline = time.monotonic() + startup_timeout
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    raise NetworkError(
                        f"server exited with code {proc.returncode} "
                        "during startup"
                    )
                if port_file.exists():
                    # Two-line format since the failover rework: port
                    # then owner pid (see repro.net.portfile).
                    text = port_file.read_text().strip()
                    if text:
                        port = int(text.split()[0])
                        handle = SpawnedServer(proc, "127.0.0.1", port)
                        break
                time.sleep(0.05)
            else:
                raise NetworkError(
                    f"server did not report a port within {startup_timeout}s"
                )
            yield handle
        finally:
            if proc.poll() is None:
                SpawnedServer(proc, "127.0.0.1", 0).terminate()
