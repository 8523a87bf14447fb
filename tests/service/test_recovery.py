"""Crash-matrix recovery tests: every named crash point vs a BFS oracle.

For each crash point in :data:`repro.service.faults.CRASH_POINTS` the
test drives a durable :class:`ReachabilityService` through a fixed-seed
random update trace with the injector armed to crash mid-trace, abandons
the wreck exactly as a killed process would, recovers from the
durability directory, and checks two things:

1. **Prefix consistency** — the recovered graph is exactly the base
   graph plus every acknowledged op, possibly plus the single in-flight
   op (which is legitimately recovered iff its WAL record survived the
   crash point).  Log-before-apply makes any other outcome a bug.
2. **Query correctness** — the recovered index agrees with a
   zero-preprocessing :class:`~repro.baselines.search.BFSBaseline` on a
   Zipfian-sampled query workload over the recovered graph.

``fsync="always"`` with one op per batch keeps WAL sequence order
identical to submission order, which is what makes the expected-state
computation deterministic.
"""

import pytest

from repro.baselines.search import BFSBaseline
from repro.bench.trace import generate_trace
from repro.bench.workloads import generate_zipfian_queries
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.service.durability import DurabilityManager
from repro.service.faults import CRASH_POINTS, FaultInjector, InjectedCrash
from repro.service.server import ReachabilityService
from repro.core.ops import UpdateOp

#: Crash on the Nth hit of the point, tuned so every point fires
#: mid-trace: WAL/apply points fire once per op, checkpoint points once
#: per checkpoint (and ``checkpoint_every=4`` forces several).
_ARM_AFTER = {
    "wal.append.before": 13,
    "wal.append.torn": 13,
    "wal.append.after": 13,
    "wal.sync": 13,
    "service.apply": 13,
    "checkpoint.serialize": 2,
    "checkpoint.rename": 2,
    "checkpoint.after": 2,
}

#: Points where the in-flight op's WAL record survives the crash and is
#: therefore *expected* to be replayed.  Everywhere else the record is
#: missing (crash before append) or torn (truncated on open).
_INFLIGHT_DURABLE = {
    "wal.append.after",
    "wal.sync",
    "service.apply",
    "checkpoint.serialize",
    "checkpoint.rename",
    "checkpoint.after",
}


def base_graph() -> DiGraph:
    return random_dag(24, 60, seed=11)


def mutation_trace(graph: DiGraph, n: int = 30) -> list[UpdateOp]:
    trace = generate_trace(graph, n, seed=17, query_fraction=0.0)
    return [UpdateOp.from_trace_op(op) for op in trace]


def run_until_crash(tmp_path, point: str):
    """Drive the trace into an armed service; return (acked, in_flight)."""
    injector = FaultInjector()
    action = "torn" if point == "wal.append.torn" else "crash"
    injector.arm(point, action, after=_ARM_AFTER[point])
    durability = DurabilityManager(
        tmp_path, fsync="always", checkpoint_every=4, injector=injector
    )
    service = ReachabilityService(
        base_graph(), durability=durability, injector=injector
    )

    acked: list[UpdateOp] = []
    in_flight = None
    try:
        for op in mutation_trace(base_graph()):
            in_flight = op
            service.apply(op)
            acked.append(op)
            in_flight = None
    except InjectedCrash as crash:
        assert crash.point == point
    else:
        pytest.fail(f"crash point {point!r} never fired")
    # Simulate the process dying: abandon the wreck without close().
    # Every surviving record was already flushed by append().
    return acked, in_flight


def expected_candidates(acked, in_flight, point):
    """The set of graphs recovery may legitimately produce."""
    must = base_graph()
    for op in acked:
        op.apply_to_graph(must)
    candidates = [must]
    if in_flight is not None and point in _INFLIGHT_DURABLE:
        with_inflight = must.copy()
        try:
            in_flight.apply_to_graph(with_inflight)
        except Exception:
            pass  # replay would skip it the same way
        candidates = [with_inflight]
    return candidates


@pytest.mark.parametrize("point", CRASH_POINTS)
def test_crash_matrix(tmp_path, point):
    acked, in_flight = run_until_crash(tmp_path, point)
    assert acked, "trace must make progress before the crash"

    recovered = ReachabilityService.recover(tmp_path, fsync="never")
    report = recovered.last_recovery
    assert report is not None

    candidates = expected_candidates(acked, in_flight, point)
    assert any(report.graph == c for c in candidates), (
        f"{point}: recovered graph matches no legitimate prefix "
        f"(acked={len(acked)}, report={report})"
    )

    # Definition 1 oracle: the recovered index must answer exactly like
    # bidirectional BFS over the recovered graph, on a skewed workload.
    oracle = BFSBaseline(report.graph)
    if report.graph.num_vertices >= 2:
        for s, t in generate_zipfian_queries(report.graph, 200, seed=5):
            assert recovered.query(s, t) == oracle.query(s, t), (point, s, t)

    # And it must keep serving writes with a continuous WAL sequence.
    pre = recovered.durability.wal.last_seq
    recovered.insert_vertex("post-crash", in_neighbors=[])
    assert recovered.durability.wal.last_seq == pre + 1
    assert recovered.self_audit(16)
    recovered.durability.close()


def test_base_graph_survives_crash_before_first_checkpoint(tmp_path):
    # The WAL only carries updates; a fresh durability directory under a
    # non-empty starting graph gets a baseline checkpoint at construction
    # so an immediate crash cannot lose the base state.
    injector = FaultInjector()
    injector.arm("wal.append.before", after=1)  # crash on the very first op
    durability = DurabilityManager(tmp_path, fsync="always", injector=injector)
    service = ReachabilityService(
        base_graph(), durability=durability, injector=injector
    )
    with pytest.raises(InjectedCrash):
        service.apply(mutation_trace(base_graph())[0])

    recovered = ReachabilityService.recover(tmp_path, fsync="never")
    assert recovered.last_recovery.graph == base_graph()
    assert recovered.last_recovery.replayed == 0
    recovered.durability.close()


def test_recover_twice_without_new_writes_is_stable(tmp_path):
    acked, _ = run_until_crash(tmp_path, "service.apply")
    first = ReachabilityService.recover(tmp_path, fsync="never")
    g1 = first.last_recovery.graph
    first.durability.close()
    second = ReachabilityService.recover(tmp_path, fsync="never")
    assert second.last_recovery.graph == g1
    second.durability.close()


def test_clean_shutdown_recovers_everything(tmp_path):
    ops = mutation_trace(base_graph())
    durability = DurabilityManager(tmp_path, fsync="never", checkpoint_every=8)
    with ReachabilityService(base_graph(), durability=durability) as service:
        service.apply_batch(ops)
    service.durability.close()

    expected = base_graph()
    for op in ops:
        op.apply_to_graph(expected)
    recovered = ReachabilityService.recover(tmp_path, fsync="never")
    assert recovered.last_recovery.graph == expected
    oracle = BFSBaseline(expected)
    for s, t in generate_zipfian_queries(expected, 100, seed=9):
        assert recovered.query(s, t) == oracle.query(s, t)
    recovered.durability.close()
