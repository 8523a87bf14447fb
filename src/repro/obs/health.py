"""Live index-health introspection for the serving stack.

TOL's operational promise is *bounded label sizes under a good total
order* (PAPER.md §4–6) — so index health is not one number but a shape:
the per-side label-size distribution, where in the total order the
label mass concentrates, how much scratch the update kernels have
claimed, and how far the WAL has run ahead of the last checkpoint.
:func:`collect_health` assembles all of it from a live
:class:`~repro.service.server.ReachabilityService` into one JSON-safe
dict, served three ways:

* the ``health`` wire op (``ReachabilityClient.health()``);
* the ``repro health`` CLI (local index file or ``--connect`` to a
  running server);
* Prometheus gauges via :func:`bind_health_gauges` (TTL-cached so a
  scrape never pays the full distribution walk twice a second).

Payload shape (``None``-valued sections mean "not configured")::

    {"epoch": ..., "degraded": ...,
     "index": {"num_vertices": ..., "num_edges": ..., "total_labels": ...,
               "label_bytes": ..., "holder_bytes": ...,
               "labels": {"in":  {"mean":, "p50":, "p95":, "max":},
                          "out": {"mean":, "p50":, "p95":, "max":}},
               "order": {"decile_coverage": [f, ...x10], "quality": f},
               "scratch": {"capacity":, "generation":} | None},
     "wal": {"lag_ops":, "lag_bytes":, "last_seq":, "checkpointed_seq":,
             "checkpoint_age_s": f | None, "checkpoints":} | None,
     "snapshot": {"generation":, "epoch":, "bytes":, "age_s":,
                  "publishes":, "segments_unlinked":, "worker_restarts":,
                  "workers": [{"worker":, "pid":, "generation":,
                               "epoch":, "requests":, "forwarded":,
                               "shed":, "snapshot_age_s":, "alive":}, ...]} | None,
     "cache": {...}}

``order.decile_coverage[d]`` is the fraction of all label entries that
reference a vertex ranked in the *d*-th decile of the total order
(decile 0 = highest-ranked).  A healthy TOL order front-loads coverage:
most entries point at top-ranked hubs.  ``order.quality`` compresses
that into one score, ``1 - mean(normalized rank of referenced
vertices)`` — near 1.0 when labels concentrate at the top of the order,
near 0.5 when references are spread uniformly (an order no better than
random), and 0.0 for an empty labeling.
"""

from __future__ import annotations

import sys
import threading
import time

from .registry import MetricRegistry

__all__ = [
    "collect_health",
    "labeling_health",
    "bind_health_gauges",
    "render_health",
]


def _side_distribution(buffers, live_ids) -> dict:
    """mean/p50/p95/max of one side's per-vertex label counts."""
    counts = sorted(len(buffers[i]) for i in live_ids)
    n = len(counts)
    if not n:
        return {"mean": 0.0, "p50": 0, "p95": 0, "max": 0, "total": 0}
    total = sum(counts)
    return {
        "mean": total / n,
        "p50": counts[min(n - 1, int(round(0.50 * (n - 1))))],
        "p95": counts[min(n - 1, int(round(0.95 * (n - 1))))],
        "max": counts[-1],
        "total": total,
    }


def labeling_health(labeling) -> dict:
    """The index section of the health payload for one live labeling.

    O(|V| + |L|): one pass over the order to rank it, one pass over
    the label buffers to bucket their references by rank decile.
    ``label_bytes`` / ``holder_bytes`` are the ``sys.getsizeof`` totals
    of the live label arrays and of the inverted-list (holder) arrays.
    """
    live_ids = list(labeling.interner.ids.values())
    label_bytes = holder_bytes = 0
    for i in live_ids:
        label_bytes += sys.getsizeof(labeling.in_ids[i])
        label_bytes += sys.getsizeof(labeling.out_ids[i])
        holder_bytes += sys.getsizeof(labeling.in_holders[i])
        holder_bytes += sys.getsizeof(labeling.out_holders[i])
    in_dist = _side_distribution(labeling.in_ids, live_ids)
    out_dist = _side_distribution(labeling.out_ids, live_ids)

    # Rank every live id by its position in the total order (0 = top).
    position_of: dict[int, int] = {}
    for position, vertex in enumerate(labeling.order):
        i = labeling.interner.ids.get(vertex)
        if i is not None:
            position_of[i] = position
    n = len(position_of)

    decile_counts = [0] * 10
    rank_sum = 0.0
    entries = 0
    if n:
        for i in live_ids:
            for buf in (labeling.in_ids[i], labeling.out_ids[i]):
                for ref in buf:
                    pos = position_of.get(ref)
                    if pos is None:
                        continue
                    decile_counts[min(9, pos * 10 // n)] += 1
                    rank_sum += pos / max(1, n - 1)
                    entries += 1
    coverage = (
        [c / entries for c in decile_counts] if entries else [0.0] * 10
    )
    quality = (1.0 - rank_sum / entries) if entries else 0.0

    return {
        "total_labels": in_dist["total"] + out_dist["total"],
        "label_bytes": label_bytes,
        "holder_bytes": holder_bytes,
        "labels": {
            "in": {k: v for k, v in in_dist.items() if k != "total"},
            "out": {k: v for k, v in out_dist.items() if k != "total"},
        },
        "order": {
            "decile_coverage": [round(c, 6) for c in coverage],
            "quality": round(quality, 6),
        },
        "scratch": labeling.scratch_stats(),
    }


def collect_health(service) -> dict:
    """Assemble the full health payload from a live service.

    Takes the read lock briefly (a stuck writer makes the ``index``
    section ``stale: True`` after one second instead of hanging the
    health probe), the WAL stats lock, and nothing else.
    """
    out = {
        "ts": time.time(),
        "epoch": service.epoch,
        "degraded": service.degraded,
        "cache": service.cache.stats(),
    }

    index = {"num_vertices": None, "num_edges": None}
    # The label walk needs a consistent labeling; try-lock so health
    # probes survive a wedged writer (they are how you notice one).
    if service._rwlock.acquire_read(timeout=1.0):
        try:
            idx = service._index
            index["num_vertices"] = idx.num_vertices
            index["num_edges"] = idx.num_edges
            index.update(labeling_health(idx.tol.labeling))
        finally:
            service._rwlock.release_read()
    else:
        index["stale"] = True
    out["index"] = index

    durability = service.durability
    if durability is None:
        out["wal"] = None
    else:
        wal_stats = durability.stats()
        lag_ops = wal_stats["last_seq"] - wal_stats["checkpointed_seq"]
        try:
            lag_bytes = durability.wal.path.stat().st_size
        except OSError:
            lag_bytes = 0
        checkpoint_age = None
        paths = durability.checkpoints.paths()
        if paths:
            try:
                checkpoint_age = time.time() - paths[-1].stat().st_mtime
            except OSError:
                pass
        out["wal"] = {
            "lag_ops": lag_ops,
            "lag_bytes": lag_bytes,
            "last_seq": wal_stats["last_seq"],
            "checkpointed_seq": wal_stats["checkpointed_seq"],
            "checkpoint_age_s": checkpoint_age,
            "checkpoints": wal_stats["checkpoints"],
        }

    # Multi-process serving: the snapshot plane (shared-memory segment
    # generation/size/age and the per-worker attach state).
    publisher = getattr(service, "shm_publisher", None)
    if publisher is None:
        out["snapshot"] = None
    else:
        # Respawn counters live in the control block (the supervisor
        # increments them; the writer — a different process since the
        # failover rework — merely reads), so health_section() already
        # carries worker_restarts / writer_restarts.
        out["snapshot"] = publisher.health_section()
    return out


def bind_health_gauges(
    registry: MetricRegistry, service, *, ttl: float = 5.0
) -> None:
    """Register ``health.*`` gauge callbacks over a TTL-cached collect.

    One :func:`collect_health` walk feeds every gauge for *ttl* seconds,
    so a Prometheus scrape reads the distribution once, not once per
    metric.
    """
    lock = threading.Lock()
    cache: dict = {"at": 0.0, "payload": None}

    def cached() -> dict:
        now = time.monotonic()
        with lock:
            if cache["payload"] is None or now - cache["at"] > ttl:
                cache["payload"] = collect_health(service)
                cache["at"] = now
            return cache["payload"]

    def gauge(path):
        def read():
            node = cached()
            for part in path:
                if node is None:
                    return None
                node = node.get(part)
            return node
        return read

    for name, path in {
        "health.labels.in_mean": ("index", "labels", "in", "mean"),
        "health.labels.in_p95": ("index", "labels", "in", "p95"),
        "health.labels.in_max": ("index", "labels", "in", "max"),
        "health.labels.out_mean": ("index", "labels", "out", "mean"),
        "health.labels.out_p95": ("index", "labels", "out", "p95"),
        "health.labels.out_max": ("index", "labels", "out", "max"),
        "health.order.quality": ("index", "order", "quality"),
        "health.index.label_bytes": ("index", "label_bytes"),
        "health.index.holder_bytes": ("index", "holder_bytes"),
        "health.scratch.capacity": ("index", "scratch", "capacity"),
        "health.wal.lag_ops": ("wal", "lag_ops"),
        "health.wal.lag_bytes": ("wal", "lag_bytes"),
        "health.wal.checkpoint_age_s": ("wal", "checkpoint_age_s"),
    }.items():
        registry.register_callback(name, gauge(path))


def render_health(payload: dict) -> str:
    """Human-readable rendering for the ``repro health`` CLI."""
    lines = [
        f"epoch {payload['epoch']}  "
        f"degraded {payload['degraded']}"
    ]
    index = payload.get("index") or {}
    if index.get("stale"):
        lines.append("index: STALE (read lock busy; numbers omitted)")
    elif "labels" in index:
        lin, lout = index["labels"]["in"], index["labels"]["out"]
        lines.append(
            f"index: |V|={index['num_vertices']} |E|={index['num_edges']} "
            f"|L|={index['total_labels']}"
        )
        lines.append(
            f"  bytes: labels {index['label_bytes']:,} "
            f"holders {index['holder_bytes']:,}"
        )
        lines.append(
            f"  Lin  mean={lin['mean']:.2f} p50={lin['p50']} "
            f"p95={lin['p95']} max={lin['max']}"
        )
        lines.append(
            f"  Lout mean={lout['mean']:.2f} p50={lout['p50']} "
            f"p95={lout['p95']} max={lout['max']}"
        )
        order = index["order"]
        top3 = sum(order["decile_coverage"][:3])
        lines.append(
            f"  order quality {order['quality']:.3f} "
            f"(top-3-decile coverage {top3:.1%})"
        )
        scratch = index.get("scratch")
        if scratch is not None:
            lines.append(
                f"  scratch capacity {scratch['capacity']} "
                f"(generation {scratch['generation']})"
            )
    wal = payload.get("wal")
    if wal is not None:
        age = wal["checkpoint_age_s"]
        age_text = f"{age:.1f}s" if age is not None else "never"
        lines.append(
            f"wal: lag {wal['lag_ops']} ops / {wal['lag_bytes']} bytes "
            f"(seq {wal['last_seq']}, checkpointed {wal['checkpointed_seq']}); "
            f"checkpoint age {age_text} ({wal['checkpoints']} kept)"
        )
    snapshot = payload.get("snapshot")
    if snapshot is not None:
        age = snapshot.get("age_s")
        age_text = f"{age:.1f}s" if age is not None else "never"
        lines.append(
            f"snapshot: generation {snapshot['generation']} "
            f"epoch {snapshot['epoch']} ({snapshot['bytes']:,} bytes, "
            f"age {age_text}); {snapshot['publishes']} publishes, "
            f"{snapshot['segments_unlinked']} unlinked "
            f"(grace {snapshot['grace_period_s']}s), "
            f"{snapshot.get('worker_restarts', 0)} worker restarts"
        )
        last = snapshot.get("last_publish")
        if last:
            lines.append(
                f"  last publish {last['ms']:.1f}ms (freeze "
                f"{last['freeze_ms']:.1f}ms, pack {last['pack_ms']:.1f}ms)"
            )
        for w in snapshot.get("workers", ()):
            w_age = w.get("snapshot_age_s")
            w_age_text = f"{w_age:.1f}s" if w_age is not None else "-"
            alive = "up" if w.get("alive") else "DOWN"
            lines.append(
                f"  worker {w['worker']} [{alive}] pid={w['pid']} "
                f"generation={w['generation']} epoch={w['epoch']} "
                f"requests={w['requests']} forwarded={w['forwarded']} "
                f"snapshot_age={w_age_text}"
            )
    cache = payload.get("cache") or {}
    if cache:
        lines.append(
            "cache: "
            + "  ".join(f"{k}={v}" for k, v in sorted(cache.items()))
        )
    return "\n".join(lines)
