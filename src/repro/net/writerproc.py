"""The service-backed serving process: single-process ``repro serve`` and
the writer child behind ``repro serve --workers``.

Both build (or **recover**) a
:class:`~repro.service.server.ReachabilityService` and serve it on the
blocking :class:`~repro.net.server.ReachabilityServer` loop;
single-process serving is the writer without a snapshot publisher.  The
writer child attaches a :class:`~repro.shm.publisher.SnapshotPublisher`
to the control block the supervisor owns and serves the writer socket fd
inherited from the supervisor — the supervisor holds the listening
socket, so the writer's *port never changes* across respawns and
workers reconnect to the same address after a failover.

Boot sequence (identical for first boot and every respawn — the
filesystem decides which it is; steps 3 and 4 are the writer's):

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
5. serve until SIGTERM/SIGINT or, for the writer, until the supervisor
   dies (ppid watchdog).

Without ``--wal``, a respawned writer rebuilds from the original
source: acknowledged updates since boot are lost (readers notice the
epoch pinning at the floor).  That is the documented no-durability
contract — run ``--workers`` with ``--wal`` for real failover.
"""

from __future__ import annotations

import os
import signal
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
from .server import ReachabilityServer

__all__ = ["serve_service", "wal_has_state"]


def wal_has_state(directory) -> bool:
    """Whether *directory* holds anything recovery could replay."""
    if not directory:
        return False
    root = Path(directory)
    if (root / "wal.log").exists():
        return True
    return any((root / "checkpoints").glob("ckpt-*"))


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


def serve_service(
    *,
    sock=None,
    host: str = "127.0.0.1",
    port: int = 0,
    control_name: Optional[str] = None,
    graph: Optional[str] = None,
    snapshot: Optional[str] = None,
    wal: Optional[str] = None,
    fsync: str = "batch",
    checkpoint_every: int = 256,
    grace_period: float = 5.0,
    max_connections: int = 0,
    drain_timeout: float = 10.0,
    slowlog_path: Optional[str] = None,
    slow_ms: float = 10.0,
    slowlog_sample: float = 0.0,
    flight_dir: Optional[str] = None,
    flight_capacity: int = 256,
    flight_interval: float = 1.0,
    metrics_out: Optional[str] = None,
    cache_size: int = 4096,
    order: str = "butterfly-u",
    on_listening=None,
) -> dict:
    """Build or recover the service, serve it until drained, tear down.

    *sock* is an inherited listening socket (else bind *host*:*port*).
    With *control_name* this is the writer child: it publishes snapshots
    to that control block and exits when the supervisor dies.
    *on_listening(server, service)* runs once the socket listens.
    Returns what the caller may report after the drain: the
    ``service``, the slow-query log's ``slowlog`` stats and the
    ``metrics_format`` written to *metrics_out* (``None`` when unused).
    """
    injector = injector_from_env()
    registry = MetricRegistry()
    if metrics_out:
        obs_trace.enable(registry)
    flight = None
    if flight_dir:
        flight = FlightRecorder(registry, capacity=flight_capacity,
                                interval=flight_interval, dump_dir=flight_dir)
    slowlog = None
    if slowlog_path:
        slowlog = SlowQueryLog(slowlog_path, threshold_ms=slow_ms,
                               sample_rate=slowlog_sample)

    service = _build_service(
        graph=graph, snapshot=snapshot, wal=wal, fsync=fsync,
        checkpoint_every=checkpoint_every, registry=registry, flight=flight,
        injector=injector,
        service_kwargs=dict(cache_size=cache_size, order=order),
    )
    bind_health_gauges(registry, service)

    publisher = None
    if control_name:
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

    server = ReachabilityServer(
        service,
        sock=sock,
        host=host,
        port=port,
        max_connections=max_connections,
        drain_timeout=drain_timeout,
        slowlog=slowlog,
    )
    report = {"service": service, "slowlog": None, "metrics_format": None}
    try:
        server.start()
        if publisher is not None:
            publisher.start()
        if flight is not None:
            flight.start()
            # SIGQUIT (ctrl-\) dumps the metric timeline without
            # stopping the server — the "what just happened" probe.
            signal.signal(
                signal.SIGQUIT, lambda *_: flight.auto_dump("sigquit")
            )
        if on_listening is not None:
            on_listening(server, service)
        server.serve_forever(watch_parent=publisher is not None)
    finally:
        if publisher is not None:
            try:
                publisher.control.set_writer_pid(0)
            except Exception:  # pragma: no cover - control block gone
                pass
            publisher.close()
        if flight is not None:
            flight.stop()
        if slowlog is not None:
            slowlog.close()
            report["slowlog"] = slowlog.stats()
        if metrics_out:
            obs_trace.disable()
            from ..obs.export import write_metrics

            report["metrics_format"] = write_metrics(registry, metrics_out)
        if service.durability is not None:
            service.durability.close()
    return report
