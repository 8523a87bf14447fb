"""Command-line interface: build, persist, query and update TOL indices.

Usage examples::

    python -m repro generate citeseerx graph.txt --vertices 2000
    python -m repro build graph.txt index.tolf --order bu
    python -m repro query index.tolf 17 1291 5 880
    python -m repro update index.tolf --insert 99999 --in 17 --out 42
    python -m repro stats index.tolf
    python -m repro reduce index.tolf --rounds 2
    python -m repro trace-generate graph.txt ops.trace --ops 500
    python -m repro trace-replay graph.txt ops.trace --methods BU Dagger BFS
    python -m repro serve-replay graph.txt ops.trace --readers 8
    python -m repro serve-replay graph.txt ops.trace --metrics-out metrics.prom
    python -m repro serve-replay graph.txt ops.trace --wal state/ --fsync batch
    python -m repro serve graph.txt --port 7421 --max-connections 1024
    python -m repro serve --snapshot index.tolf --workers 4
    python -m repro loadgen graph.txt --spawn --clients 4 --duration 5
    python -m repro recover state/ --checkpoint
    python -m repro metrics graph.txt ops.trace --format json --events ops.jsonl
    python -m repro experiments --only fig7 table4 --chart

Vertex tokens that parse as integers are treated as integers (matching the
edge-list file format); everything else stays a string.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Sequence
from typing import Optional

from . import datasets
from .bench.experiments import ALL_EXPERIMENTS
from .core.index import ReachabilityIndex
from .core.orders import ORDER_STRATEGIES
from .core.serialize import load_index, save_index
from .core.stats import labeling_stats, top_label_holders
from .errors import (
    ReproError,
    SerializationError,
    UnknownVertexError,
    VertexNotFoundError,
)
from .graph.io import read_edge_list, write_edge_list

__all__ = ["main", "build_parser"]

#: Distinct nonzero exit codes for the two error families a scripted
#: caller most wants to tell apart (generic ReproError stays 1, argparse
#: / usage errors stay 2).
EXIT_UNKNOWN_VERTEX = 3
EXIT_SERIALIZATION = 4


def _vertex(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def _vertex_list(text: Optional[str]):
    if not text:
        return []
    return [_vertex(tok) for tok in text.split(",") if tok]


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> int:
    """`repro generate`: write a dataset stand-in as an edge-list file."""
    graph = datasets.load(args.dataset, num_vertices=args.vertices, seed=args.seed)
    write_edge_list(
        graph, args.output,
        header=f"dataset={args.dataset} vertices={args.vertices} seed={args.seed}",
    )
    print(
        f"wrote {args.output}: |V|={graph.num_vertices} |E|={graph.num_edges} "
        f"(stand-in for {args.dataset})"
    )
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    """`repro build`: index a graph file and save it as a TOLF pack.

    Builds the :class:`ReachabilityIndex` (SCC condensation + TOL labels,
    so cyclic graphs work) and writes the full pack: labels, DAG edges,
    interner and the original graph.  `repro query/update/stats/reduce`
    read it, and `repro serve --snapshot` boots from it without
    rebuilding.
    """
    graph = read_edge_list(args.graph)
    start = time.perf_counter()
    index = ReachabilityIndex(graph, order=args.order)
    elapsed = time.perf_counter() - start
    save_index(index, args.index)
    stats = labeling_stats(index.tol.labeling)
    print(f"built {args.order} index in {elapsed:.2f}s -> {args.index}")
    print(stats.render())
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """`repro query`: answer (source, target) pairs from a saved index."""
    if len(args.vertices) % 2:
        print("error: query vertices must come in (source, target) pairs",
              file=sys.stderr)
        return 2
    index = load_index(args.index)
    pairs = [
        (_vertex(args.vertices[i]), _vertex(args.vertices[i + 1]))
        for i in range(0, len(args.vertices), 2)
    ]
    exit_code = 0
    for s, t in pairs:
        try:
            verdict = index.query(s, t)
        except (UnknownVertexError, VertexNotFoundError) as exc:
            print(f"{s} -> {t}: error: {exc}", file=sys.stderr)
            exit_code = EXIT_UNKNOWN_VERTEX
            continue
        except ReproError as exc:
            print(f"{s} -> {t}: error: {exc}", file=sys.stderr)
            exit_code = exit_code or 1
            continue
        suffix = ""
        if args.witness:
            suffix = f"  (witness: {index.witness(s, t)})"
        print(f"{s} -> {t}: {'reachable' if verdict else 'unreachable'}{suffix}")
    return exit_code


def cmd_update(args: argparse.Namespace) -> int:
    """`repro update`: insert/delete vertices in a saved index, in place."""
    index = load_index(args.index)
    changed = False
    if args.insert is not None:
        vertex = _vertex(args.insert)
        index.insert_vertex(
            vertex,
            in_neighbors=_vertex_list(args.in_neighbors),
            out_neighbors=_vertex_list(args.out_neighbors),
        )
        print(f"inserted {vertex!r}; index size now {index.size()} labels")
        changed = True
    for victim in args.delete or []:
        vertex = _vertex(victim)
        index.delete_vertex(vertex)
        print(f"deleted {vertex!r}; index size now {index.size()} labels")
        changed = True
    if not changed:
        print("nothing to do: pass --insert and/or --delete", file=sys.stderr)
        return 2
    save_index(index, args.index)
    print(f"saved {args.index}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """`repro stats`: label-distribution diagnostics of a saved index."""
    index = load_index(args.index)
    served = isinstance(index, ReachabilityIndex)
    labeling = index.tol.labeling if served else index.labeling
    stats = labeling_stats(labeling)
    print(f"{args.index}: |V|={index.num_vertices} |E|={index.num_edges}")
    print(stats.render())
    print("heaviest components:" if served else "heaviest vertices:")
    for v, count in top_label_holders(labeling, k=args.top):
        print(f"  {v!r}: {count} labels")
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    """`repro reduce`: run Section-6 label reduction on a saved index."""
    index = load_index(args.index)
    before = index.size()
    start = time.perf_counter()
    report = index.reduce_labels(max_rounds=args.rounds)
    elapsed = time.perf_counter() - start
    save_index(index, args.index)
    print(
        f"reduced {before} -> {report.final_size} labels "
        f"({report.reduction_ratio:.1%} saved, {report.vertices_moved} vertices "
        f"moved) in {elapsed:.1f}s; saved {args.index}"
    )
    return 0


def cmd_trace_generate(args: argparse.Namespace) -> int:
    """`repro trace-generate`: synthesize a mutation/query trace file."""
    from .bench.trace import generate_trace, write_trace

    graph = read_edge_list(args.graph)
    trace = generate_trace(
        graph, args.ops, seed=args.seed, query_fraction=args.query_fraction
    )
    write_trace(trace, args.output)
    print(f"wrote {args.output}: {trace.counts()}")
    return 0


def cmd_trace_replay(args: argparse.Namespace) -> int:
    """`repro trace-replay`: replay a trace against chosen methods."""
    from .bench.harness import METHODS, build_method
    from .bench.trace import read_trace, replay_trace

    graph = read_edge_list(args.graph)
    trace = read_trace(args.trace)
    reports = {}
    for name in args.methods:
        if name not in METHODS:
            print(f"unknown method {name!r}; known: {', '.join(METHODS)}",
                  file=sys.stderr)
            return 2
        reports[name] = replay_trace(build_method(name, graph), trace)

    answers = {name: r.answers for name, r in reports.items()}
    reference = next(iter(answers.values()))
    agree = all(a == reference for a in answers.values())
    print(f"replayed {len(trace)} ops ({len(reference)} queries); "
          f"answers {'AGREE' if agree else 'DISAGREE'} across methods")
    header = f"{'op':7s}" + "".join(f" {name:>12s}" for name in reports)
    print(header)
    for kind in ("addv", "delv", "adde", "dele", "query"):
        row = f"{kind:7s}"
        for report in reports.values():
            row += f" {report.seconds[kind] * 1e3:10.2f}ms"
        print(row)
    return 0 if agree else 1


def cmd_serve_replay(args: argparse.Namespace) -> int:
    """`repro serve-replay`: drive a trace through the concurrent service.

    The trace's mutations go through one writer thread, one
    :meth:`~repro.service.server.ReachabilityService.apply` (validated,
    WAL-logged with ``--wal``, applied) per op; its queries are replayed
    by ``--readers`` concurrent reader threads, each starting from a
    different offset so the cache sees a mixed stream.
    """
    import threading

    from .bench.trace import read_trace
    from .obs import trace as obs_trace
    from .obs.export import render_prometheus, write_metrics
    from .obs.registry import MetricRegistry
    from .service.server import ReachabilityService
    from .core.ops import UpdateOp

    if args.readers < 1:
        print(f"error: --readers must be >= 1, got {args.readers}",
              file=sys.stderr)
        return 2
    if args.rounds < 1:
        print(f"error: --rounds must be >= 1, got {args.rounds}",
              file=sys.stderr)
        return 2

    graph = read_edge_list(args.graph)
    trace = read_trace(args.trace)
    mutations = [op for op in trace if op.kind != "query"]
    queries = [(op.tail, op.head) for op in trace if op.kind == "query"]
    if not queries:
        print("error: trace contains no query ops; generate one with a "
              "nonzero --query-fraction", file=sys.stderr)
        return 2

    # --metrics-out implies core-span tracing for the whole replay
    # (index build included), routed into the service's own registry so
    # the exported file is one cross-layer snapshot.
    durability = None
    if args.wal:
        from .service.durability import DurabilityManager

        durability = DurabilityManager(
            args.wal,
            fsync=args.fsync,
            checkpoint_every=args.checkpoint_every,
        )

    registry = MetricRegistry() if args.metrics_out else None
    if registry is not None:
        obs_trace.enable(registry)
    restore_handlers = {}
    try:
        service = ReachabilityService(
            graph,
            cache_size=args.cache_size,
            registry=registry,
            durability=durability,
        )

        if args.metrics_out:
            # An interrupted replay should still leave its metrics
            # artifact: flush the registry on SIGINT/SIGTERM, then exit
            # with the conventional 128+signum.  os._exit because the
            # reader threads are mid-replay and non-daemon — unwinding
            # the main thread alone would leave the process hanging.
            import os
            import signal

            def _flush_and_exit(signum, frame):
                try:
                    fmt = write_metrics(service.registry, args.metrics_out)
                    print(
                        f"\ninterrupted by signal {signum}; wrote {fmt} "
                        f"metrics to {args.metrics_out}",
                        file=sys.stderr, flush=True,
                    )
                finally:
                    os._exit(128 + signum)

            for sig in (signal.SIGINT, signal.SIGTERM):
                restore_handlers[sig] = signal.signal(sig, _flush_and_exit)

        unknown = [0] * args.readers

        def reader(idx: int) -> None:
            offset = (idx * 7919) % len(queries)  # decorrelate readers
            for _ in range(args.rounds):
                for i in range(len(queries)):
                    s, t = queries[(offset + i) % len(queries)]
                    try:
                        service.query(s, t)
                    except (ReproError, KeyError):
                        # The writer raced us and removed an endpoint.
                        unknown[idx] += 1

        def writer() -> None:
            for op in mutations:
                service.apply(UpdateOp.from_trace_op(op))

        threads = [
            threading.Thread(target=reader, args=(i,), name=f"reader-{i}")
            for i in range(args.readers)
        ]
        threads.append(threading.Thread(target=writer, name="writer"))
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
    finally:
        if restore_handlers:
            import signal

            for sig, handler in restore_handlers.items():
                signal.signal(sig, handler)
        if registry is not None:
            obs_trace.disable()

    total_queries = args.readers * args.rounds * len(queries)
    print(
        f"served {total_queries} queries ({args.readers} readers x "
        f"{args.rounds} rounds x {len(queries)}) and {len(mutations)} "
        f"mutations in {elapsed:.2f}s "
        f"({total_queries / elapsed:,.0f} queries/s)"
    )
    if sum(unknown):
        print(f"  {sum(unknown)} queries hit a concurrently-removed vertex")
    if durability is not None:
        wal_stats = durability.stats()
        durability.close()
        print(
            f"  wal: {wal_stats['records_appended']} records appended, "
            f"{wal_stats['fsyncs']} fsyncs, "
            f"{wal_stats['checkpoints']} checkpoints "
            f"(covered through seq {wal_stats['checkpointed_seq']}); "
            f"recover with: repro recover {args.wal}"
        )
    print("metrics snapshot:")
    print(render_prometheus(service.registry), end="")
    if args.metrics_out:
        fmt = write_metrics(service.registry, args.metrics_out)
        print(f"wrote {fmt} metrics to {args.metrics_out}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """`repro serve`: expose a graph over the TCP wire protocol.

    Builds a :class:`ReachabilityService` over the edge-list file
    (crash-safe via ``--wal``, recovering when the directory already
    holds state) and serves it on the blocking frame loop of
    :class:`~repro.net.server.ReachabilityServer` — one thread per
    connection, a connection budget (``--max-connections``), structured
    error replies, and graceful drain on SIGTERM/SIGINT.  This is the
    multi-process writer without a snapshot publisher (see
    repro.net.writerproc).  See docs/network.md for the protocol.

    Two extensions (docs/scaling.md):

    * ``--snapshot FILE.tolf`` boots the index from a pack written by
      `repro build` — no rebuild, no WAL replay;
    * ``--workers N`` serves in multi-process mode: N reader processes
      answer queries from a shared-memory frozen snapshot while a writer
      process applies updates and republishes.
    """
    from .net.portfile import remove_port_file, write_port_file
    from .net.protocol import PROTOCOL_VERSION
    from .net.writerproc import serve_service
    from .obs.export import render_prometheus

    if not args.graph and not args.snapshot:
        print("error: pass a graph edge-list file or --snapshot FILE.tolf",
              file=sys.stderr)
        return 2
    if args.port_file and _port_file_busy(args.port_file):
        return 2
    if args.workers:
        return _cmd_serve_multiprocess(args)

    def on_listening(server, service) -> None:
        print(
            f"serving {args.snapshot or args.graph} on "
            f"{server.host}:{server.port} (protocol v{PROTOCOL_VERSION}, "
            f"|V|={service.num_vertices}, "
            f"|E|={service.num_edges}); SIGTERM drains gracefully",
            flush=True,
        )
        if args.port_file:
            write_port_file(args.port_file, server.port)

    try:
        report = serve_service(
            host=args.host,
            port=args.port,
            graph=args.graph,
            max_connections=args.max_connections,
            on_listening=on_listening,
            **_service_kwargs(args),
        )
    finally:
        if args.port_file:
            remove_port_file(args.port_file)
    print("drained; final metrics snapshot:")
    print(render_prometheus(report["service"].registry), end="")
    slow_stats = report["slowlog"]
    if slow_stats is not None:
        print(
            f"slow-query log: {slow_stats['written']} lines written "
            f"({slow_stats['seen']} requests seen, threshold "
            f"{slow_stats['threshold_ms']}ms) -> {args.slowlog}"
        )
    if report["metrics_format"]:
        print(f"wrote {report['metrics_format']} metrics to "
              f"{args.metrics_out}")
    return 0


def _port_file_busy(path: str) -> bool:
    """Refuse to clobber a port file whose owning server still runs."""
    from .net.portfile import read_port_file
    from .shm.control import pid_alive

    port, pid = read_port_file(path)
    if pid is not None and pid_alive(pid):
        print(
            f"error: port file {path} is owned by live pid {pid} "
            f"(port {port}); is another server already running?",
            file=sys.stderr,
        )
        return True
    return False


def _cmd_serve_multiprocess(args: argparse.Namespace) -> int:
    """The ``--workers N`` branch of `repro serve`.

    This process becomes a pure supervisor (see repro.net.multiproc):
    the service itself is built — or recovered from ``--wal`` — inside
    the ``serve-writer`` subprocess, so a writer crash costs a respawn,
    not the assembly.
    """
    from .net.multiproc import MultiProcessServer
    from .net.protocol import PROTOCOL_VERSION

    mp = MultiProcessServer(
        workers=args.workers,
        writer_args=_writer_argv(args),
        host=args.host,
        port=args.port,
        max_staleness=args.max_staleness,
        forward_timeout=args.forward_timeout,
        max_connections=args.max_connections,
    )
    source = args.snapshot or args.graph
    print(
        f"serving {source} on {args.host}:{mp.port} "
        f"(protocol v{PROTOCOL_VERSION}, {args.workers} reader workers, "
        f"writer subprocess on 127.0.0.1:{mp.writer_port}); "
        f"SIGTERM drains gracefully",
        flush=True,
    )
    exit_code = mp.run(port_file=args.port_file)
    print(f"drained; worker restarts={mp.restarts()}, "
          f"writer restarts={mp.writer_restarts()}")
    return exit_code


def cmd_serve_writer(args: argparse.Namespace) -> int:
    """Hidden: writer-process entry point spawned by `repro serve --workers`.

    Not for direct use — it expects an inherited listening-socket fd and
    a live shared-memory control block owned by the supervisor (see
    repro.net.writerproc).  Recovers from ``--wal`` when the directory
    already holds state, which is exactly what a post-crash respawn sees.
    The writer serves only its reader workers' links, one connection
    each, so it runs without a connection budget.
    """
    import socket

    from .net.writerproc import serve_service

    serve_service(
        sock=socket.socket(fileno=args.fd),
        control_name=args.control,
        graph=args.graph,
        max_connections=0,
        **_service_kwargs(args),
    )
    return 0


#: Options of the service a serving process builds, shared by `repro
#: serve` and the hidden `serve-writer` child it spawns with --workers:
#: ``(flag, serve_service keyword, add_argument keywords)``.  Defined
#: once, so the writer parses exactly what `serve` accepts and
#: :func:`_writer_argv` forwards every one of them.
_SERVICE_OPTIONS = (
    ("--snapshot", "snapshot", dict(
        default=None, metavar="FILE.tolf",
        help="boot from a `repro build` pack instead of building the "
             "index from the edge list")),
    ("--order", "order", dict(
        default="butterfly-u", choices=sorted(set(ORDER_STRATEGIES)))),
    ("--cache-size", "cache_size", dict(
        type=int, default=4096,
        help="query-result LRU capacity (0 disables)")),
    ("--wal", "wal", dict(
        default=None, metavar="DIR",
        help="durability directory (WAL + checkpoints)")),
    ("--fsync", "fsync", dict(
        default="batch", choices=["always", "batch", "never"],
        help="WAL fsync policy (with --wal)")),
    ("--checkpoint-every", "checkpoint_every", dict(
        type=int, default=256,
        help="checkpoint after this many WAL records (with --wal)")),
    ("--grace-period", "grace_period", dict(
        type=float, default=5.0,
        help="seconds a superseded shared-memory segment stays linked "
             "for late readers, at most (with --workers)")),
    ("--drain-timeout", "drain_timeout", dict(
        type=float, default=10.0,
        help="seconds the SIGTERM drain waits for requests already read")),
    ("--metrics-out", "metrics_out", dict(
        default=None, metavar="PATH",
        help="export the metric registry after the drain "
             "(.json = JSON, else Prometheus text)")),
    ("--slowlog", "slowlog_path", dict(
        default=None, metavar="PATH",
        help="write a JSONL slow-query log here (read it back with "
             "`repro slowlog`)")),
    ("--slow-ms", "slow_ms", dict(
        type=float, default=50.0,
        help="slow-query threshold in milliseconds (with --slowlog)")),
    ("--slowlog-sample", "slowlog_sample", dict(
        type=float, default=0.0,
        help="fraction of below-threshold requests to sample into the "
             "log anyway (with --slowlog)")),
    ("--flight-dir", "flight_dir", dict(
        default=None, metavar="DIR",
        help="enable the flight recorder and write its dumps here "
             "(auto-dumps on degraded entry, recovery; "
             "SIGQUIT dumps on demand)")),
    ("--flight-interval", "flight_interval", dict(
        type=float, default=1.0,
        help="seconds between flight-recorder snapshots (with "
             "--flight-dir)")),
    ("--flight-capacity", "flight_capacity", dict(
        type=int, default=256,
        help="snapshots retained in the flight-recorder ring (with "
             "--flight-dir)")),
)


def _option_dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _add_service_options(parser: argparse.ArgumentParser) -> None:
    for flag, _, kwargs in _SERVICE_OPTIONS:
        parser.add_argument(flag, **kwargs)


def _service_kwargs(args: argparse.Namespace) -> dict:
    """The :func:`~repro.net.writerproc.serve_service` keywords of *args*."""
    return {
        keyword: getattr(args, _option_dest(flag))
        for flag, keyword, _ in _SERVICE_OPTIONS
    }


def _writer_argv(args: argparse.Namespace) -> list:
    """`serve-writer` arguments carrying every service option of *args*."""
    argv = ["--graph", args.graph] if args.graph else []
    for flag, _, _ in _SERVICE_OPTIONS:
        value = getattr(args, _option_dest(flag))
        if value is not None:
            argv += [flag, str(value)]
    return argv


def cmd_shm_janitor(args: argparse.Namespace) -> int:
    """`repro shm-janitor`: scan for / reap orphaned shared-memory segments.

    Every `repro serve --workers` boot runs the same reap automatically;
    this command exists for operators cleaning up after SIGKILLed runs
    without starting a server, and for CI leak assertions
    (``--scan`` exits 1 when orphans exist).
    """
    import json as _json

    from .shm.janitor import reap_orphans, scan_orphans

    if args.scan:
        orphans = scan_orphans(min_age=args.min_age)
        print(_json.dumps(orphans, indent=2, sort_keys=True))
        return 1 if orphans else 0
    reaped = reap_orphans(min_age=args.min_age)
    total = sum(len(v) for v in reaped.values())
    print(f"reaped {total} segment(s) from {len(reaped)} orphaned "
          f"server(s)")
    for base, names in sorted(reaped.items()):
        print(f"  {base}: {', '.join(names)}")
    return 0


def cmd_serve_worker(args: argparse.Namespace) -> int:
    """Hidden: reader-worker entry point spawned by `repro serve --workers`.

    Not for direct use — it expects an inherited listening-socket fd and
    a live shared-memory control block (see repro.net.multiproc).
    """
    from .net.worker import run_reader_worker

    return run_reader_worker(
        listen_fd=args.fd,
        control_name=args.control,
        writer_host=args.writer_host,
        writer_port=args.writer_port,
        worker_id=args.worker_id,
        max_staleness=args.max_staleness,
        forward_timeout=args.forward_timeout,
        max_connections=args.max_connections,
    )


def cmd_loadgen(args: argparse.Namespace) -> int:
    """`repro loadgen`: drive client processes against a net server.

    Either targets a running server (``--host``/``--port``) or spawns
    one itself (``--spawn``, which also exercises the SIGTERM drain on
    the way out).  Writes the qps/latency report to ``--output``
    (default ``BENCH_serve.json`` in the working directory).
    """
    from .net.loadgen import run_loadgen, spawned_server, write_bench_json

    if args.spawn and args.port is not None:
        print("error: pass either --spawn or --port, not both",
              file=sys.stderr)
        return 2
    if not args.spawn and args.port is None:
        print("error: pass --port (running server) or --spawn",
              file=sys.stderr)
        return 2
    if args.chaos and args.spawn and not args.workers:
        print("error: --chaos needs a multi-process server "
              "(--spawn --workers N)", file=sys.stderr)
        return 2
    duration = 1.5 if args.quick else args.duration
    graph = read_edge_list(args.graph)

    def drive(host: str, port: int) -> dict:
        return run_loadgen(
            host, port, graph,
            clients=args.clients,
            duration=duration,
            batch=args.batch,
            skew=args.skew,
            seed=args.seed,
            verify=args.verify,
            chaos=args.chaos,
        )

    if args.spawn:
        server_args = [
            "--max-connections", str(args.server_max_connections),
        ]
        if args.server_wal:
            server_args += ["--wal", args.server_wal]
        if args.server_flight_dir:
            server_args += ["--flight-dir", args.server_flight_dir]
        workers_args = (
            ["--workers", str(args.workers)] if args.workers else []
        )
        single = None
        if args.compare_single and args.workers:
            # Baseline first: same graph, same load, classic
            # single-process server.
            with spawned_server(
                args.graph, server_args=server_args
            ) as server:
                single = drive(server.host, server.port)
                server.terminate()
            print(
                f"single-process baseline: {single['qps']:,.0f} qps",
                flush=True,
            )
        with spawned_server(
            args.graph, server_args=server_args + workers_args
        ) as server:
            result = drive(server.host, server.port)
            exit_code = server.terminate()
            result["server_exit_code"] = exit_code
            if exit_code != 0:
                print(f"warning: server exited with code {exit_code}",
                      file=sys.stderr)
        if args.workers:
            result["workers"] = args.workers
        if single is not None:
            result["single_process"] = {
                "qps": single["qps"],
                "latency_ms": single["latency_ms"],
                "totals": single["totals"],
            }
            result["speedup_vs_single"] = (
                round(result["qps"] / single["qps"], 3)
                if single["qps"] else None
            )
    else:
        result = drive(args.host, args.port)
        if args.workers:
            result["workers"] = args.workers

    totals = result["totals"]
    lat = result["latency_ms"]
    lat_text = (
        f"p50 {lat['p50']:.2f}ms  p99 {lat['p99']:.2f}ms"
        if lat else "no admitted requests"
    )
    print(
        f"{result['clients']} client processes x {result['duration_s']}s: "
        f"{totals['queries']} queries, {result['qps']:,.0f} qps aggregate, "
        f"{lat_text}"
    )
    availability = result.get("availability")
    avail_text = (
        f"{availability:.4%} available" if availability is not None
        else "availability n/a"
    )
    print(
        f"  shed {totals['shed']} requests, {totals['errors']} errors, "
        f"{totals.get('unavailable', 0)} unavailable ({avail_text}), "
        f"{totals['degraded_replies']} degraded replies"
        + (f", {totals.get('stale_replies', 0)} stale replies"
           if totals.get("stale_replies") else "")
        + (f", {totals['verify_failures']} oracle disagreements"
           if args.verify else "")
    )
    chaos = result.get("chaos")
    if chaos is not None:
        if chaos.get("error"):
            print(f"  chaos {chaos['mode']}: FAILED — {chaos['error']}",
                  file=sys.stderr)
        else:
            ttr = chaos.get("time_to_recovery_s")
            rate = chaos.get("error_rate_during_outage")
            print(
                f"  chaos {chaos['mode']}: killed pid "
                f"{chaos.get('killed_pid')}, "
                + (f"recovered in {ttr:.2f}s" if ttr is not None
                   else "NOT RECOVERED")
                + f"; outage error rate "
                + (f"{rate:.2%}" if rate is not None else "n/a")
                + f" ({chaos.get('outage_errors', 0)}/"
                  f"{chaos.get('outage_requests', 0)} requests)"
            )
    speedup = result.get("speedup_vs_single")
    if speedup is not None:
        print(
            f"  speedup vs single process: {speedup:.2f}x "
            f"({result['workers']} workers)"
        )
    if args.output:
        path = write_bench_json(result, args.output)
        print(f"wrote {path}")
    if args.verify and totals["verify_failures"]:
        print("error: admitted answers disagreed with the BFS oracle",
              file=sys.stderr)
        return 1
    if args.expect_shed and totals["shed"] == 0:
        print("error: --expect-shed was set but nothing was shed",
              file=sys.stderr)
        return 1
    if args.min_speedup is not None:
        if speedup is None:
            print("error: --min-speedup needs --workers with "
                  "--compare-single", file=sys.stderr)
            return 2
        if speedup < args.min_speedup:
            print(
                f"error: speedup {speedup:.2f}x is below the "
                f"--min-speedup {args.min_speedup}x gate",
                file=sys.stderr,
            )
            return 1
    if args.chaos:
        if chaos is None or chaos.get("error"):
            print("error: the chaos leg did not run", file=sys.stderr)
            return 1
        if not chaos.get("recovered"):
            print("error: the writer never recovered after the chaos "
                  "kill", file=sys.stderr)
            return 1
        ttr = chaos.get("time_to_recovery_s")
        if args.chaos_max_recovery_s is not None and (
            ttr is None or ttr > args.chaos_max_recovery_s
        ):
            print(
                f"error: recovery took {ttr}s, above the "
                f"--chaos-max-recovery-s {args.chaos_max_recovery_s} gate",
                file=sys.stderr,
            )
            return 1
        rate = chaos.get("error_rate_during_outage")
        if args.chaos_max_error_rate is not None and (
            rate is not None and rate > args.chaos_max_error_rate
        ):
            print(
                f"error: outage error rate {rate:.2%} is above the "
                f"--chaos-max-error-rate {args.chaos_max_error_rate} gate",
                file=sys.stderr,
            )
            return 1
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    """`repro recover`: rebuild serving state from a durability directory.

    Loads the newest valid checkpoint, replays the WAL suffix (truncating
    any torn tail), rebuilds the index from the recovered graph and runs
    the sampled Definition-1 self-audit.  Exit code 1 means the audit
    failed — the state recovered but the rebuilt index disagrees with
    BFS, which should never happen and warrants a bug report.
    """
    from .service.server import ReachabilityService

    start = time.perf_counter()
    service = ReachabilityService.recover(
        args.directory,
        fsync=args.fsync,
        checkpoint_every=args.checkpoint_every,
    )
    elapsed = time.perf_counter() - start
    print(f"{service.last_recovery} in {elapsed:.2f}s")
    healthy = service.self_audit(args.audit_samples)
    print(
        "definition-1 self-audit: "
        + ("PASS" if healthy else "FAIL (index disagrees with BFS)")
    )
    if args.checkpoint:
        path = service.checkpoint()
        print(f"checkpoint written: {path}")
    service.durability.close()
    return 0 if healthy else 1


def cmd_metrics(args: argparse.Namespace) -> int:
    """`repro metrics`: export a metric registry — replayed or live.

    Two modes:

    * **Replay** (positional ``graph trace``): single-threaded replay of
      a trace through a :class:`ReachabilityService` with core-span
      tracing enabled from *before* index construction — so the exported
      registry carries the whole telemetry story in one snapshot: the
      `tol.build` span, every `tol.insert`/`tol.delete` with Δk-sweep
      and repair-frontier sizes, the optional `tol.reduction` rounds,
      cache hit-rate and query-latency percentiles.
    * **Live scrape** (``--connect HOST:PORT``): fetch the running
      server's registry snapshot over the ``stats`` wire op and render
      it — counters, gauges (including the ``health.*`` family), and
      histogram summaries.

    See docs/observability.md for the metric names and span taxonomy.
    """
    from .bench.trace import read_trace
    from .obs import JsonlSink, render_json, render_prometheus, trace
    from .obs.registry import MetricRegistry
    from .service.server import ReachabilityService
    from .core.ops import UpdateOp

    if args.connect:
        return _metrics_connect(args)
    if not args.graph or not args.trace:
        print(
            "error: pass `graph trace` positionals (replay mode) or "
            "--connect HOST:PORT (live scrape)",
            file=sys.stderr,
        )
        return 2
    graph = read_edge_list(args.graph)
    trace_ops = read_trace(args.trace)

    registry = MetricRegistry()
    sink = JsonlSink(args.events) if args.events else None
    try:
        with trace.capture(registry, sink):
            service = ReachabilityService(
                graph, cache_size=args.cache_size, registry=registry
            )
            for op in trace_ops:
                if op.kind == "query":
                    try:
                        service.query(op.tail, op.head)
                    except ReproError:
                        pass  # the trace may query a deleted endpoint
                else:
                    service.apply(UpdateOp.from_trace_op(op))
            if args.reduce_rounds:
                service.reduce_labels(max_rounds=args.reduce_rounds)
    finally:
        if sink is not None:
            sink.close()

    rendered = (
        render_json(registry)
        if args.format == "json"
        else render_prometheus(registry)
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered if rendered.endswith("\n") else rendered + "\n")
        print(f"wrote {args.format} metrics to {args.out}")
    else:
        print(rendered, end="" if rendered.endswith("\n") else "\n")
    if sink is not None:
        print(
            f"wrote {sink.records_written} JSONL events to {args.events}",
            file=sys.stderr,
        )
    return 0


def _parse_connect(spec: str) -> tuple:
    """Split a ``HOST:PORT`` spec (port required)."""
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise ReproError(f"--connect expects HOST:PORT, got {spec!r}")
    return host or "127.0.0.1", int(port)


def _metrics_connect(args: argparse.Namespace) -> int:
    """Live-scrape mode of `repro metrics`."""
    import json as json_mod

    from .net.client import ReachabilityClient
    from .obs.export import render_prometheus_snapshot

    host, port = _parse_connect(args.connect)
    with ReachabilityClient(host, port) as client:
        snapshot = client.stats()
    rendered = (
        json_mod.dumps(snapshot, indent=2, sort_keys=True)
        if args.format == "json"
        else render_prometheus_snapshot(snapshot)
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered if rendered.endswith("\n") else rendered + "\n")
        print(f"wrote {args.format} metrics to {args.out}")
    else:
        print(rendered, end="" if rendered.endswith("\n") else "\n")
    return 0


def cmd_health(args: argparse.Namespace) -> int:
    """`repro health`: live index-health introspection.

    Either scrapes a running server's ``health`` wire op
    (``--connect HOST:PORT``) or builds a service over a local edge-list
    file and reports the same payload — label-size distribution (mean /
    p95 / max Lin and Lout), where in the total order the label mass
    sits (decile coverage + the order-quality score), scratch-buffer
    high-water marks, WAL lag and checkpoint age.
    """
    import json as json_mod

    from .obs.health import render_health

    if args.connect:
        from .net.client import ReachabilityClient

        host, port = _parse_connect(args.connect)
        with ReachabilityClient(host, port) as client:
            payload = client.health()
    elif args.graph:
        from .service.server import ReachabilityService

        service = ReachabilityService(
            read_edge_list(args.graph), order=args.order
        )
        payload = service.health()
    else:
        print(
            "error: pass a graph edge-list file or --connect HOST:PORT",
            file=sys.stderr,
        )
        return 2
    if args.json:
        print(json_mod.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_health(payload))
    return 0


def cmd_slowlog(args: argparse.Namespace) -> int:
    """`repro slowlog`: tail or aggregate a slow-query log.

    The log is JSONL written by a server started with ``--slowlog``
    (see `repro serve`); this reads it back — the last N lines with
    ``--tail``, or the aggregate view (count, outcome mix, duration
    percentiles, per-stage means, slowest traces) with ``--aggregate``.
    """
    import json as json_mod

    from .obs.slowlog import aggregate_slowlog, read_slowlog

    records = read_slowlog(args.path, tail=args.tail)
    if args.aggregate:
        agg = aggregate_slowlog(records)
        print(json_mod.dumps(agg, indent=2, sort_keys=True))
        return 0
    for record in records:
        print(json_mod.dumps(record, sort_keys=True))
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    """`repro experiments`: print the paper's tables and figures."""
    wanted = args.only or sorted(ALL_EXPERIMENTS)
    for name in wanted:
        if name not in ALL_EXPERIMENTS:
            print(f"unknown experiment {name!r}; known: "
                  f"{', '.join(sorted(ALL_EXPERIMENTS))}", file=sys.stderr)
            return 2
    for name in wanted:
        kwargs = {}
        if args.vertices is not None:
            kwargs["num_vertices"] = args.vertices
        result = ALL_EXPERIMENTS[name](**kwargs)
        print()
        print(result.render())
        if args.chart:
            from .bench.charts import render_bar_chart

            print()
            print(render_bar_chart(result))
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for the `repro` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TOL reachability indices for dynamic graphs (SIGMOD'14 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a dataset stand-in as an edge list")
    p.add_argument("dataset", choices=[n for n in datasets.DATASET_NAMES])
    p.add_argument("output")
    p.add_argument("--vertices", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("build", help="build an index from an edge-list file")
    p.add_argument("graph")
    p.add_argument("index")
    p.add_argument(
        "--order", default="butterfly-u",
        choices=sorted(set(ORDER_STRATEGIES)),
    )
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="answer reachability queries")
    p.add_argument("index")
    p.add_argument("vertices", nargs="+", help="source target [source target ...]")
    p.add_argument("--witness", action="store_true", help="show one witness vertex")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("update", help="insert/delete vertices in a saved index")
    p.add_argument("index")
    p.add_argument("--insert", default=None, help="vertex to insert")
    p.add_argument("--in", dest="in_neighbors", default="",
                   help="comma-separated in-neighbors of the inserted vertex")
    p.add_argument("--out", dest="out_neighbors", default="",
                   help="comma-separated out-neighbors of the inserted vertex")
    p.add_argument("--delete", action="append", default=[],
                   help="vertex to delete (repeatable)")
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("stats", help="label statistics of a saved index")
    p.add_argument("index")
    p.add_argument("--top", type=int, default=5)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("reduce", help="run Section-6 label reduction in place")
    p.add_argument("index")
    p.add_argument("--rounds", type=int, default=1)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("trace-generate",
                       help="synthesize a replayable mutation/query trace")
    p.add_argument("graph", help="edge-list file of the starting graph")
    p.add_argument("output", help="trace file to write")
    p.add_argument("--ops", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--query-fraction", type=float, default=0.5)
    p.set_defaults(func=cmd_trace_generate)

    p = sub.add_parser("trace-replay",
                       help="replay a trace against one or more methods")
    p.add_argument("graph", help="edge-list file of the starting graph")
    p.add_argument("trace", help="trace file to replay")
    p.add_argument("--methods", nargs="+", default=["BU", "Dagger"])
    p.set_defaults(func=cmd_trace_replay)

    p = sub.add_parser(
        "serve-replay",
        help="replay a trace through the concurrent serving layer",
    )
    p.add_argument("graph", help="edge-list file of the starting graph")
    p.add_argument("trace", help="trace file providing queries and mutations")
    p.add_argument("--readers", type=int, default=4,
                   help="number of concurrent reader threads")
    p.add_argument("--rounds", type=int, default=1,
                   help="times each reader replays the query stream")
    p.add_argument("--cache-size", type=int, default=4096,
                   help="query-result LRU capacity (0 disables)")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="export the metric registry after the replay "
                        "(.json = JSON, else Prometheus text); also "
                        "enables core-span tracing for the run")
    p.add_argument("--wal", default=None, metavar="DIR",
                   help="durability directory: log every update to a WAL "
                        "and checkpoint periodically (see `repro recover`)")
    p.add_argument("--fsync", default="batch",
                   choices=["always", "batch", "never"],
                   help="WAL fsync policy (with --wal)")
    p.add_argument("--checkpoint-every", type=int, default=256,
                   help="checkpoint after this many WAL records (with --wal)")
    p.set_defaults(func=cmd_serve_replay)

    p = sub.add_parser(
        "serve",
        help="serve a graph over TCP (length-prefixed JSON protocol)",
    )
    p.add_argument("graph", nargs="?", default=None,
                   help="edge-list file of the graph to serve (optional "
                        "with --snapshot)")
    p.add_argument("--workers", type=int, default=0, metavar="N",
                   help="multi-process mode: N reader processes answer "
                        "queries from a shared-memory frozen snapshot; "
                        "this process becomes the writer (0 = classic "
                        "single-process serving)")
    p.add_argument("--max-staleness", type=float, default=0.0,
                   help="with --workers: refuse snapshot answers older "
                        "than this many seconds while the writer is down "
                        "(0 = serve stale answers indefinitely, stamped "
                        "with stale_ms)")
    p.add_argument("--forward-timeout", type=float, default=5.0,
                   help="with --workers: seconds a reader waits on the "
                        "writer for a forwarded op before answering "
                        "writer_unavailable")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7421,
                   help="TCP port (0 picks a free one)")
    p.add_argument("--port-file", default=None, metavar="PATH",
                   help="write the actually bound port here once listening "
                        "(for scripts and the load generator)")
    p.add_argument("--max-connections", type=int, default=1024,
                   help="connection budget per serving process (each "
                        "reader worker with --workers); a connection "
                        "over it gets a structured 'overloaded' reply "
                        "to its first request and is closed "
                        "(0 = unbounded)")
    _add_service_options(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="drive multi-process Zipfian load at a net server",
    )
    p.add_argument("graph", help="edge-list file the server was started on")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help="port of a running `repro serve` instance")
    p.add_argument("--spawn", action="store_true",
                   help="spawn the server subprocess here (and SIGTERM it "
                        "when done) instead of targeting --port")
    p.add_argument("--clients", type=int, default=4,
                   help="number of client worker processes")
    p.add_argument("--duration", type=float, default=5.0,
                   help="seconds each client sends load")
    p.add_argument("--batch", type=int, default=16,
                   help="query pairs per request frame")
    p.add_argument("--skew", type=float, default=1.1,
                   help="Zipf skew of the endpoint popularity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify", action="store_true",
                   help="check every admitted answer against a BFS oracle "
                        "in the worker (small graphs only)")
    p.add_argument("--expect-shed", action="store_true",
                   help="exit 1 unless at least one request was shed "
                        "(for overload smoke tests)")
    p.add_argument("--quick", action="store_true",
                   help="smoke mode: shrink the duration to ~1.5s")
    p.add_argument("--output", default="BENCH_serve.json", metavar="PATH",
                   help="where to write the qps/latency artifact "
                        "('' disables)")
    p.add_argument("--server-max-connections", type=int, default=1024,
                   help="--max-connections for the spawned server (with "
                        "--spawn)")
    p.add_argument("--workers", type=int, default=0, metavar="N",
                   help="spawn the server in multi-process mode with N "
                        "reader workers (with --spawn); recorded in the "
                        "artifact's `workers` field")
    p.add_argument("--compare-single", action="store_true",
                   help="also run a single-process baseline first (with "
                        "--spawn --workers) and record `single_process` + "
                        "`speedup_vs_single` in the artifact")
    p.add_argument("--min-speedup", type=float, default=None, metavar="X",
                   help="exit 1 unless speedup_vs_single >= X (with "
                        "--compare-single)")
    p.add_argument("--chaos", choices=["kill-writer"], default=None,
                   help="inject a process fault mid-run and record the "
                        "outage error rate + time-to-recovery in the "
                        "artifact (needs a multi-process server)")
    p.add_argument("--chaos-max-recovery-s", type=float, default=None,
                   metavar="S",
                   help="exit 1 if the chaos recovery took longer than S "
                        "seconds (with --chaos)")
    p.add_argument("--chaos-max-error-rate", type=float, default=None,
                   metavar="F",
                   help="exit 1 if the fraction of failed requests during "
                        "the chaos outage exceeds F (with --chaos)")
    p.add_argument("--server-wal", default=None, metavar="DIR",
                   help="--wal directory for the spawned server (with "
                        "--spawn); lets a chaos-killed writer recover "
                        "from its checkpoint + WAL instead of rebuilding")
    p.add_argument("--server-flight-dir", default=None, metavar="DIR",
                   help="--flight-dir for the spawned server (with "
                        "--spawn); CI's chaos-smoke job uploads the "
                        "recorder dumps as a failure artifact")
    p.set_defaults(func=cmd_loadgen)

    # Hidden plumbing: the reader-worker subprocess behind
    # `repro serve --workers`.  Takes an inherited listening-socket fd
    # and the shared-memory control-block name; not useful by hand.
    p = sub.add_parser("serve-worker")
    p.add_argument("--fd", type=int, required=True)
    p.add_argument("--control", required=True)
    p.add_argument("--writer-host", default="127.0.0.1")
    p.add_argument("--writer-port", type=int, required=True)
    p.add_argument("--worker-id", type=int, required=True)
    p.add_argument("--max-staleness", type=float, default=0.0)
    p.add_argument("--forward-timeout", type=float, default=5.0)
    p.add_argument("--max-connections", type=int, default=0)
    p.set_defaults(func=cmd_serve_worker)

    # Hidden plumbing: the writer subprocess behind `repro serve
    # --workers`.  Builds (or recovers) the service, attaches the
    # publisher to the supervisor's control block, serves forwarded
    # traffic on the inherited fd.
    p = sub.add_parser("serve-writer")
    p.add_argument("--fd", type=int, required=True)
    p.add_argument("--control", required=True)
    p.add_argument("--graph", default=None)
    _add_service_options(p)
    p.set_defaults(func=cmd_serve_writer)

    p = sub.add_parser(
        "shm-janitor",
        help="reap shared-memory segments orphaned by dead servers",
    )
    p.add_argument("--scan", action="store_true",
                   help="report orphans as JSON without unlinking "
                        "(exit 1 when any exist — CI leak assertion)")
    p.add_argument("--min-age", type=float, default=30.0,
                   help="age gate (seconds) for control-block-less "
                        "segment families")
    p.set_defaults(func=cmd_shm_janitor)

    p = sub.add_parser(
        "recover",
        help="rebuild serving state from a WAL + checkpoint directory",
    )
    p.add_argument("directory",
                   help="durability directory (wal.log + checkpoints/)")
    p.add_argument("--fsync", default="batch",
                   choices=["always", "batch", "never"],
                   help="WAL fsync policy for continued operation")
    p.add_argument("--checkpoint-every", type=int, default=256,
                   help="checkpoint cadence for continued operation")
    p.add_argument("--audit-samples", type=int, default=32,
                   help="vertex pairs checked by the post-recovery "
                        "Definition-1 self-audit")
    p.add_argument("--checkpoint", action="store_true",
                   help="write a fresh checkpoint covering the recovered "
                        "state before exiting")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser(
        "metrics",
        help="export a metric registry: replay a trace, or scrape a "
             "running server with --connect",
    )
    p.add_argument("graph", nargs="?", default=None,
                   help="edge-list file of the starting graph (replay mode)")
    p.add_argument("trace", nargs="?", default=None,
                   help="trace file providing queries and mutations "
                        "(replay mode)")
    p.add_argument("--connect", default=None, metavar="HOST:PORT",
                   help="scrape a running `repro serve` instance's "
                        "registry over the stats wire op instead of "
                        "replaying")
    p.add_argument("--format", default="prometheus",
                   choices=["prometheus", "json"],
                   help="rendering of the metric registry")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the rendering here instead of stdout")
    p.add_argument("--events", default=None, metavar="PATH",
                   help="also write per-operation JSONL span/event records")
    p.add_argument("--cache-size", type=int, default=4096,
                   help="query-result LRU capacity (0 disables)")
    p.add_argument("--reduce-rounds", type=int, default=1,
                   help="Section-6 reduction rounds to run after the "
                        "replay (0 skips; default 1, so the snapshot "
                        "shows the reduction span)")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "health",
        help="live index-health introspection (local graph or --connect)",
    )
    p.add_argument("graph", nargs="?", default=None,
                   help="edge-list file to build and inspect locally")
    p.add_argument("--connect", default=None, metavar="HOST:PORT",
                   help="scrape a running `repro serve` instance's "
                        "health wire op instead")
    p.add_argument("--order", default="butterfly-u",
                   choices=sorted(set(ORDER_STRATEGIES)),
                   help="order strategy for local builds")
    p.add_argument("--json", action="store_true",
                   help="print the raw JSON payload instead of the "
                        "human rendering")
    p.set_defaults(func=cmd_health)

    p = sub.add_parser(
        "slowlog",
        help="tail or aggregate a slow-query log written by `repro serve`",
    )
    p.add_argument("path", help="the JSONL slow-query log file")
    p.add_argument("--tail", type=int, default=None, metavar="N",
                   help="only the last N records")
    p.add_argument("--aggregate", action="store_true",
                   help="print the aggregate view (percentiles, stage "
                        "means, slowest traces) instead of raw lines")
    p.set_defaults(func=cmd_slowlog)

    p = sub.add_parser("experiments", help="print the paper's tables/figures")
    p.add_argument("--only", nargs="*", default=None,
                   help="subset of: " + " ".join(sorted(ALL_EXPERIMENTS)))
    p.add_argument("--vertices", type=int, default=None,
                   help="override every dataset's stand-in size")
    p.add_argument("--chart", action="store_true",
                   help="also draw each experiment as an ASCII bar chart")
    p.set_defaults(func=cmd_experiments)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnknownVertexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_VERTEX
    except SerializationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SERIALIZATION
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pipe (`repro slowlog ... | head`) closed early; the
        # interpreter would otherwise traceback while flushing stdout.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
