"""The traced run: per-layer numbers for one workload.

Replays the workload's generated inputs in this process, timing calls
into each layer's public functions (build, query, cache, protocol,
update kernels, WAL, checkpoint, freeze/pack, shared-memory publish,
recovery), then makes one short untraced served pass against a fresh
``repro serve`` for the round-trip numbers.  Every layer is measured on
every workload; what a workload's *served* path does not run (WAL,
publish and failover on the single-process server) is left out of its
accounting.

The accounting lines put the per-layer costs next to the served
numbers: the query path per request, the update path per op, what the
layers leave unaccounted, and the overhead of asking the server for its
stage timings.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

from repro.core.butterfly import butterfly_build
from repro.core.frozen import freeze
from repro.core.index import ReachabilityIndex, TOLIndex
from repro.core.ops import UpdateOp
from repro.core.orders import resolve_order_strategy
from repro.core.serialize import pack_frozen, unpack_frozen
from repro.graph.condensation import DynamicCondensation
from repro.graph.io import read_edge_list
from repro.net.protocol import decode_payload, encode_frame, ok_response
from repro.service.durability import (
    CheckpointStore,
    DurabilityManager,
    WriteAheadLog,
)
from repro.service.server import ReachabilityService
from repro.shm.janitor import list_families, scan_orphans
from repro.shm.publisher import SnapshotPublisher
from repro.shm.reader import SnapshotReader

import served
from common import median, percentile
from inputs import CACHE_CAPACITY, WARM_REQUESTS

#: Every per-layer metric and its unit.
PER_LAYER = {
    "graph.read_s": "s",
    "graph.condense_s": "s",
    "graph.csr_s": "s",
    "orders.order_s": "s",
    "butterfly.build_s": "s",
    "butterfly.labels": "count",
    "labeling.query_us": "us",
    "labeling.probe_ids": "count",
    "cache.hit_ratio": "share",
    "service.query_batch_us": "us",
    "protocol.encode_us": "us",
    "protocol.decode_us": "us",
    "protocol.request_bytes": "B",
    "protocol.reply_bytes": "B",
    "net.server_us": "us",
    "net.wire_us": "us",
    "insertion.op_us.p50": "us",
    "insertion.op_us.p99": "us",
    "insertion.labels_added": "count",
    "deletion.op_us.p50": "us",
    "deletion.op_us.p99": "us",
    "deletion.labels_removed": "count",
    "condensation.edge_op_us": "us",
    "service.apply_us": "us",
    "service.apply_overhead_us": "us",
    "wal.append_us": "us",
    "wal.sync_us": "us",
    "wal.bytes_per_op": "B",
    "checkpoint.mirror_copy_s": "s",
    "checkpoint.write_s": "s",
    "checkpoint.bytes": "B",
    "frozen.freeze_s": "s",
    "frozen.query_us": "us",
    "serialize.pack_s": "s",
    "serialize.pack_bytes": "B",
    "serialize.unpack_s": "s",
    "publish.s": "s",
    "publish.bytes": "B",
    "reader.attach_us": "us",
    "recover.load_s": "s",
    "recover.rebuild_s": "s",
    "recover.replay_s": "s",
    "served.visible_p50_ms": "ms",
    "accounting.query_layers_us": "us",
    "accounting.query_unaccounted_us": "us",
    "accounting.timings_overhead_us": "us",
    "accounting.update_layers_ms": "ms",
    "accounting.update_unaccounted_ms": "ms",
}

#: Distinct pairs replayed through the label and frozen query layers.
QUERY_SAMPLE = 4096


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


def build_layers(inputs, m: dict):
    """Parse, condense, CSR, order, Butterfly: the server's boot path."""
    graph, m["graph.read_s"] = _timed(read_edge_list, inputs.graph_path)
    copy = graph.copy()
    cond, m["graph.condense_s"] = _timed(DynamicCondensation, copy)
    _, m["graph.csr_s"] = _timed(cond.dag.copy().csr)
    own = cond.dag.copy()
    order, m["orders.order_s"] = _timed(resolve_order_strategy("butterfly-u"), own)
    labeling, m["butterfly.build_s"] = _timed(
        butterfly_build, own, order, prune=True, engine="csr"
    )
    m["butterfly.labels"] = labeling.size()
    return ReachabilityIndex.restore(cond, TOLIndex(own, labeling))


def query_layers(inputs, index, service, m: dict):
    """Label and frozen intersections, the cache, the service batch, the
    protocol codec, on the workload's own read requests."""
    cond, tol = index.condensation, index.tol
    frozen, m["frozen.freeze_s"] = _timed(freeze, tol)
    seen = dict.fromkeys(p for b in inputs.read_batches for p in b)
    comps = [(cond.component(s), cond.component(t)) for s, t in seen]
    comps = [(cs, ct) for cs, ct in comps if cs != ct][:QUERY_SAMPLE]
    query = tol.labeling.query
    _, elapsed = _timed(lambda: [query(cs, ct) for cs, ct in comps])
    m["labeling.query_us"] = elapsed / len(comps) * 1e6
    m["labeling.probe_ids"] = sum(
        len(tol.out_labels(cs)) + len(tol.in_labels(ct)) for cs, ct in comps
    ) / len(comps)

    _, elapsed = _timed(lambda: [frozen.query(cs, ct) for cs, ct in comps])
    m["frozen.query_us"] = elapsed / len(comps) * 1e6
    meta = {"component_of": list(cond.component_of.values())}
    blob, m["serialize.pack_s"] = _timed(pack_frozen, frozen, meta, include_edges=False)
    m["serialize.pack_bytes"] = len(blob)
    _, m["serialize.unpack_s"] = _timed(unpack_frozen, blob)

    # The served read path in process: warm-up then one cycle, through
    # the service (cache + index) and the wire codec on both sides.
    for batch in inputs.read_batches[:WARM_REQUESTS]:
        service.query_batch_with_epoch(batch)
    before = service.cache.stats()
    batch_s = encode_s = decode_s = 0.0
    req_bytes = rep_bytes = 0
    for i, batch in enumerate(inputs.read_batches):
        request = {"v": 2, "id": i, "op": "query",
                   "pairs": [[s, t] for s, t in batch], "trace": "0" * 16}
        frame, t_enc = _timed(encode_frame, request)
        decoded, t_dec = _timed(decode_payload, frame[4:])
        pairs = [tuple(p) for p in decoded["pairs"]]
        (answers, epoch, degraded), t_batch = _timed(
            service.query_batch_with_epoch, pairs)
        reply = ok_response(i, results=answers, epoch=epoch,
                            degraded=degraded, trace=request["trace"])
        reply_frame, t_enc2 = _timed(encode_frame, reply)
        _, t_dec2 = _timed(decode_payload, reply_frame[4:])
        batch_s += t_batch
        encode_s += t_enc + t_enc2
        decode_s += t_dec + t_dec2
        req_bytes += len(frame)
        rep_bytes += len(reply_frame)
    after = service.cache.stats()
    n = len(inputs.read_batches)
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    m["cache.hit_ratio"] = hits / max(1, hits + misses)
    m["service.query_batch_us"] = batch_s / n * 1e6
    m["protocol.encode_us"] = encode_s / n * 1e6
    m["protocol.decode_us"] = decode_s / n * 1e6
    m["protocol.request_bytes"] = req_bytes / n
    m["protocol.reply_bytes"] = rep_bytes / n


@contextmanager
def kernel_timer(log: list):
    """Time every ``UpdateOp.apply`` call (the kernel entry the service
    uses) while the block runs, appending ``seconds`` to *log*."""
    original = UpdateOp.apply

    def timed_apply(op, index):
        start = time.perf_counter()
        try:
            return original(op, index)
        finally:
            log.append(time.perf_counter() - start)

    UpdateOp.apply = timed_apply
    try:
        yield
    finally:
        UpdateOp.apply = original


def update_layers(inputs, service, run_dir: Path, m: dict) -> dict:
    """The update round through the WAL-backed service, with the
    kernel timed inside each apply; then WAL, checkpoint, publish and
    recovery on the result."""
    ops = inputs.ops
    kernel, apply_t, calls = [], [], []
    by_kind: dict = {}
    added = removed = 0
    with kernel_timer(calls):
        for op in ops:
            before = service.size()
            _, elapsed = _timed(service.apply_batch, [op])
            delta = service.size() - before
            kernel.append(sum(calls))
            calls.clear()
            apply_t.append(elapsed)
            by_kind.setdefault(op.kind, []).append(kernel[-1])
            if op.kind == "insert_vertex":
                added += max(0, delta)
            elif op.kind == "delete_vertex":
                removed += max(0, -delta)
    ins_t, del_t = by_kind["insert_vertex"], by_kind["delete_vertex"]
    edge_t = by_kind.get("insert_edge", []) + by_kind.get("delete_edge", [])
    m["insertion.op_us.p50"] = median(ins_t) * 1e6
    m["insertion.op_us.p99"] = percentile(ins_t, 99) * 1e6
    m["insertion.labels_added"] = added
    m["deletion.op_us.p50"] = median(del_t) * 1e6
    m["deletion.op_us.p99"] = percentile(del_t, 99) * 1e6
    m["deletion.labels_removed"] = removed
    m["condensation.edge_op_us"] = median(edge_t) * 1e6
    m["service.apply_us"] = median(apply_t) * 1e6
    m["service.apply_overhead_us"] = median(
        a - k for a, k in zip(apply_t, kernel)) * 1e6

    with WriteAheadLog(run_dir / "probe-wal.log", fsync="batch") as wal:
        append_t, sync_t = [], []
        for op in ops:
            append_t.append(_timed(wal.append, op)[1])
            sync_t.append(_timed(wal.sync)[1])
    m["wal.append_us"] = median(append_t) * 1e6
    m["wal.sync_us"] = median(sync_t) * 1e6
    m["wal.bytes_per_op"] = (run_dir / "probe-wal.log").stat().st_size / len(ops)
    mirror, m["checkpoint.mirror_copy_s"] = _timed(inputs.graph.copy)
    store = CheckpointStore(run_dir / "probe-ckpt")
    path, m["checkpoint.write_s"] = _timed(store.write, mirror, {"wal_seq": 1})
    m["checkpoint.bytes"] = path.stat().st_size

    families_before = set(list_families())
    publisher = SnapshotPublisher(service)
    try:
        _, m["publish.s"] = _timed(publisher.publish)
        m["publish.bytes"] = publisher.health_section()["bytes"]
        reader = SnapshotReader(publisher.control_name)
        try:
            _, elapsed = _timed(reader.current)
            m["reader.attach_us"] = elapsed * 1e6
        finally:
            reader.close()
    finally:
        publisher.close()
    leaks = sorted(set(list_families()) - families_before)

    # Recovery from the service's durability directory: checkpoint load,
    # WAL suffix replay onto the graph, index rebuild.
    wal_dir = service.durability.directory
    service.durability.close()
    (graph, meta, _path), m["recover.load_s"] = _timed(
        CheckpointStore(wal_dir / "checkpoints").load_latest)
    start = time.perf_counter()
    with WriteAheadLog(wal_dir / "wal.log", fsync="batch") as wal:
        suffix = [op for seq, op in wal.records() if seq > meta["wal_seq"]]
    for op in suffix:
        op.apply_to_graph(graph)
    m["recover.replay_s"] = time.perf_counter() - start
    _, m["recover.rebuild_s"] = _timed(ReachabilityIndex, graph)
    return {
        "kernel_ms": sum(kernel) / len(kernel) * 1e3,
        "apply_ms": sum(apply_t) / len(apply_t) * 1e3,
        "wal_ms": (sum(append_t) + sum(sync_t)) / len(ops) * 1e3,
        "leaks": leaks,
        "replayed": len(suffix),
    }


def timed_reads(server, batches, seconds: float) -> dict:
    """Closed loop alternating untimed and ``timings=True`` requests."""
    plain, timed, server_s, wire_s, errors = [], [], [], [], 0
    stop_at = time.perf_counter() + seconds
    with server.client() as client:
        i = 0
        while time.perf_counter() < stop_at:
            batch = batches[i % len(batches)]
            ask = bool(i % 2)
            i += 1
            start = time.perf_counter()
            try:
                reply = client.query_many(batch, timings=ask)
            except served.CLIENT_ERRORS:
                errors += 1
                continue
            rtt = time.perf_counter() - start
            if ask:
                timed.append(rtt)
                total = reply.timings["total_ms"] / 1e3
                server_s.append(total)
                wire_s.append(rtt - total)
            else:
                plain.append(rtt)
    return {"plain": plain, "timed": timed, "server": server_s,
            "wire": wire_s, "errors": errors, "sent": i}


def run(workload, inputs, seconds: int, run_dir: Path, log) -> dict:
    """One traced run; returns ``{"metrics", "tally"}``."""
    tally = served.Tally()
    m: dict = {}
    index = build_layers(inputs, m)
    service = ReachabilityService(
        index=index, cache_size=CACHE_CAPACITY,
        durability=DurabilityManager(run_dir / "traced-wal", fsync="batch"),
    )
    query_layers(inputs, index, service, m)
    upd = update_layers(inputs, service, run_dir, m)
    if upd["leaks"]:
        tally.add(0, 1, f"traced publish leaked {upd['leaks']}")

    # One short untraced served pass for the round-trip numbers.
    orphans_before = set(scan_orphans(min_age=0.0))
    server = served.ServerProc(inputs.graph_path, list(workload.server_args),
                               run_dir, "t")
    try:
        server.boot()
        warm = {}
        served.closed_loop(server, inputs.read_batches, 0.0, warm,
                           count=WARM_REQUESTS)
        reads = timed_reads(server, inputs.read_batches, max(2.0, seconds / 2))
        tally.add(reads["sent"] + warm["sent"], reads["errors"] + warm["errors"],
                  "traced reads")
        ops = inputs.ops
        updates = served.update_phase(server, ops, inputs.update_batches)
        tally.add(len(ops) + updates["read_sent"],
                  updates["errors"] + updates["read_errors"], "traced updates")
        served.checked(tally, server, inputs, "traced")
    finally:
        server.stop()
    leaks = served.leaked_segments(orphans_before)
    if leaks:
        tally.add(0, 1, f"leaked shm segment families {leaks}")

    m["net.server_us"] = median(reads["server"]) * 1e6
    m["net.wire_us"] = median(reads["wire"]) * 1e6
    m["served.visible_p50_ms"] = median(updates["visible"]) * 1e3

    # Accounting, query path, per request.
    # A single-process server answers through the service (cache +
    # index); reader workers answer from the frozen snapshot, whose time
    # the worker reports as its stage timing.
    multiprocess = "--workers" in workload.server_args
    served_us = median(reads["plain"]) * 1e6
    compute_us = m["net.server_us"] if multiprocess else m["service.query_batch_us"]
    layers_us = m["protocol.encode_us"] + m["protocol.decode_us"] + compute_us
    m["accounting.query_layers_us"] = layers_us
    m["accounting.query_unaccounted_us"] = served_us - layers_us
    m["accounting.timings_overhead_us"] = median(reads["timed"]) * 1e6 - served_us
    # Accounting, update path, per op (means: the sequence mixes op kinds).
    lat = updates["latencies"]
    served_ms = sum(lat) / len(lat) * 1e3
    # Without a WAL the served apply path is the kernel plus the service's
    # bookkeeping; the in-process apply above runs with a WAL, so compare
    # against the kernel alone there.
    wal = "--wal" in workload.server_args
    layers_ms = upd["apply_ms"] if wal else upd["kernel_ms"]
    m["accounting.update_layers_ms"] = layers_ms
    m["accounting.update_unaccounted_ms"] = served_ms - layers_ms

    wal_note = "" if wal else \
        " (this server runs no WAL: wal/checkpoint/publish/recover are off its path)"
    log(f"query path per request, served p50 {served_us:9.1f} us untraced "
        f"(one connection)")
    log(f"  protocol encode {m['protocol.encode_us']:9.1f} us   "
        f"decode {m['protocol.decode_us']:9.1f} us")
    log(f"  {'worker probe' if multiprocess else 'service.query_batch'} "
        f"{compute_us:9.1f} us "
        f"(cache hit ratio {m['cache.hit_ratio']:.3f}, label query "
        f"{m['labeling.query_us']:.2f} us/pair)")
    log(f"  unaccounted {m['accounting.query_unaccounted_us']:9.1f} us "
        f"(net.server {m['net.server_us']:.1f} us, net.wire {m['net.wire_us']:.1f} us)")
    log(f"  timings=True overhead {m['accounting.timings_overhead_us']:9.1f} us/request")
    log(f"update path per op (means), served {served_ms:9.2f} ms{wal_note}")
    log(f"  kernel {upd['kernel_ms']:9.2f} ms   service.apply {upd['apply_ms']:9.2f} ms "
        f"(WAL append+sync {upd['wal_ms']:.3f} ms)")
    log(f"  per flush with a WAL: mirror copy {m['checkpoint.mirror_copy_s'] * 1e3:.1f} ms; "
        f"per publish: freeze {m['frozen.freeze_s'] * 1e3:.1f} ms + pack "
        f"{m['serialize.pack_s'] * 1e3:.1f} ms, publish {m['publish.s'] * 1e3:.1f} ms")
    log(f"  unaccounted {m['accounting.update_unaccounted_ms']:9.2f} ms")
    log(f"recovery: load {m['recover.load_s']:.3f} s, replay {upd['replayed']} "
        f"records {m['recover.replay_s']:.3f} s, rebuild {m['recover.rebuild_s']:.3f} s")
    return {"metrics": m, "tally": tally}
