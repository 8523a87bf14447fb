"""The writer subprocess behind ``repro serve --workers``.

PR 9 ran the writer *in* the supervisor process, which made a writer
crash fatal to the whole assembly.  Now the writer is a child like the
readers, and this module is its ``main``: build (or **recover**) the
:class:`~repro.service.server.ReachabilityService`, attach a
:class:`~repro.shm.publisher.SnapshotPublisher` to the control block
the supervisor owns, and run the asyncio
:class:`~repro.net.server.ReachabilityServer` on the writer socket fd
inherited from the supervisor — the supervisor holds the listening
socket, so the writer's *port never changes* across respawns and
workers reconnect to the same address after a failover.

Boot sequence (identical for first boot and every respawn — the
filesystem decides which it is):

1. arm a chaos injector from ``REPRO_CHAOS`` if the harness set one
   (one-shot: the respawn after an injected kill boots clean);
2. if the WAL directory contains state, ``ReachabilityService.recover``
   replays checkpoint + WAL suffix — updates acknowledged before the
   crash survive it; otherwise build fresh from the graph/pack;
3. attach the publisher to the existing control block: repair a seqlock
   a mid-flip death left odd, floor published epochs at the inherited
   value, publish immediately (readers re-attach on their next request)
   and retire the dead writer's segment;
4. stamp our pid into the control block — readers use its liveness to
   fail forwarded ops fast while we are gone;
5. serve until SIGTERM, the supervisor dies (ppid watchdog), or the
   control block's shutdown flag rises.

Without ``--wal``, a respawned writer rebuilds from the original
source: acknowledged updates since boot are lost (readers notice the
epoch pinning at the floor).  That is the documented no-durability
contract — run ``--workers`` with ``--wal`` for real failover.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from pathlib import Path
from typing import Optional

from ..core.serialize import load_served_index
from ..obs import trace as obs_trace
from ..obs.flight import FlightRecorder
from ..obs.health import bind_health_gauges
from ..obs.registry import MetricRegistry
from ..obs.slowlog import SlowQueryLog
from ..service.server import ReachabilityService
from ..shm.publisher import SnapshotPublisher
from .chaos import injector_from_env

__all__ = ["run_writer_process", "wal_has_state"]


def wal_has_state(directory) -> bool:
    """Whether *directory* holds anything recovery could replay."""
    if not directory:
        return False
    root = Path(directory)
    if (root / "wal.log").exists():
        return True
    return any((root / "checkpoints").glob("ckpt-*"))


def _start_ppid_watchdog(on_orphaned, *, interval: float = 1.0) -> None:
    """Exit when the parent (the supervisor) disappears.

    A SIGKILLed supervisor cannot signal its children; without this the
    writer would hold the WAL and the port forever.  Reparenting (to
    pid 1 or a subreaper) changes ``getppid``, which is the signal.
    """
    parent = os.getppid()

    def watch() -> None:
        while True:
            time.sleep(interval)
            if os.getppid() != parent:
                on_orphaned()
                return

    threading.Thread(target=watch, name="ppid-watchdog",
                     daemon=True).start()


def _build_service(
    *,
    graph: Optional[str],
    snapshot: Optional[str],
    wal: Optional[str],
    fsync: str,
    checkpoint_every: int,
    registry,
    flight,
    injector,
    service_kwargs: dict,
) -> ReachabilityService:
    from ..graph.io import read_edge_list

    common = dict(service_kwargs)
    common.update(registry=registry, flight=flight)
    if injector is not None:
        common["injector"] = injector
    if wal_has_state(wal):
        return ReachabilityService.recover(
            wal,
            fsync=fsync,
            checkpoint_every=checkpoint_every,
            **common,
        )
    durability = None
    if wal:
        from ..service.durability import DurabilityManager

        durability = DurabilityManager(
            wal,
            fsync=fsync,
            checkpoint_every=checkpoint_every,
            **({"injector": injector} if injector is not None else {}),
        )
    if snapshot:
        return ReachabilityService(index=load_served_index(snapshot),
                                   durability=durability, **common)
    return ReachabilityService(read_edge_list(graph), durability=durability,
                               **common)


def run_writer_process(
    *,
    listen_fd: int,
    control_name: str,
    graph: Optional[str] = None,
    snapshot: Optional[str] = None,
    wal: Optional[str] = None,
    fsync: str = "batch",
    checkpoint_every: int = 256,
    grace_period: float = 5.0,
    max_pending: int = 4096,
    max_batch: int = 1024,
    batch_delay: float = 0.0,
    drain_timeout: float = 10.0,
    slowlog_path: Optional[str] = None,
    slow_ms: float = 10.0,
    flight_dir: Optional[str] = None,
    metrics_out: Optional[str] = None,
    cache_size: int = 4096,
    flush_threshold: int = 1,
    order: str = "butterfly-u",
) -> int:
    """Entry point for the hidden ``repro serve-writer`` subcommand."""
    import asyncio
    import signal

    from .server import ReachabilityServer

    injector = injector_from_env()
    registry = MetricRegistry()
    if metrics_out:
        obs_trace.enable(registry)
    flight = None
    if flight_dir:
        flight = FlightRecorder(registry, dump_dir=flight_dir)
    slowlog = None
    if slowlog_path:
        slowlog = SlowQueryLog(slowlog_path, threshold_ms=slow_ms)

    service = _build_service(
        graph=graph, snapshot=snapshot, wal=wal, fsync=fsync,
        checkpoint_every=checkpoint_every, registry=registry, flight=flight,
        injector=injector,
        service_kwargs=dict(
            cache_size=cache_size, flush_threshold=flush_threshold,
            order=order,
        ),
    )
    bind_health_gauges(registry, service)

    publisher = SnapshotPublisher(
        service,
        control=control_name,
        grace_period=grace_period,
        registry=registry,
        injector=injector,
    )
    service.shm_publisher = publisher
    publisher.control.set_writer_pid(os.getpid())
    publisher.publish()

    writer_sock = socket.socket(fileno=listen_fd)
    server = ReachabilityServer(
        service,
        host="127.0.0.1",
        max_pending=max_pending,
        max_batch=max_batch,
        batch_delay=batch_delay,
        drain_timeout=drain_timeout,
        slowlog=slowlog,
        sock=writer_sock,
    )

    exit_code = 0
    try:
        async def run() -> None:
            stopping = asyncio.Event()
            loop = asyncio.get_event_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, stopping.set)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
            _start_ppid_watchdog(
                lambda: loop.call_soon_threadsafe(stopping.set)
            )
            await server.start()
            publisher.start()
            if flight is not None:
                flight.start()
            await stopping.wait()
            await server.shutdown()

        asyncio.run(run())
    finally:
        try:
            publisher.control.set_writer_pid(0)
        except Exception:  # pragma: no cover - control block gone
            pass
        publisher.close()
        if flight is not None:
            flight.stop()
        if slowlog is not None:
            slowlog.close()
        if metrics_out:
            obs_trace.disable()
            from ..obs.export import write_metrics

            write_metrics(registry, metrics_out)
        if service.durability is not None:
            service.durability.close()
    return exit_code
