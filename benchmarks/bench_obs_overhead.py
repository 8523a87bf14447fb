"""Observability overhead — the tracing layer's performance contract.

The span instrumentation threaded through the core (``tol.build``,
``tol.insert``, ``tol.delete``, ``tol.reduction``) is designed so the
*disabled* path costs one attribute read plus a shared no-op context
manager per operation.  This file makes that a tested guarantee rather
than a hope:

* ``test_disabled_overhead_within_budget`` times the instrumented
  ``butterfly_build`` (tracing off) against an uninstrumented replica of
  the same peeling loop — the pre-instrumentation baseline — and asserts
  the ratio stays under :data:`OVERHEAD_BUDGET` (3%).  It uses min-of-N
  timings (minimum is the right estimator for "how fast can this code
  run"; scheduler noise only ever adds time) with one retry at doubled
  reps before failing, so a single noisy CI neighbor cannot flake it.
* ``test_enabled_build_cost`` reports what tracing costs when it is
  actually on (registry + per-level events) — informational, no budget.
* ``test_service_query_overhead_disabled`` runs the serving layer's
  query path with tracing off, the regime a production deployment sits
  in almost all the time.
* ``test_query_timings_path_equivalent`` pins the request-tracing tier's
  contract: ``query_batch_with_epoch`` has one body, and a ``timings``
  dict only adds per-batch clock reads and stage bookkeeping — the
  timed and default calls must agree on every answer, and the timed
  call's cost is reported for the record.

Unlike the rest of the benchmark suite this file keeps one scale
(|V|=5000, |E|=20000) even under ``--quick``: the budget assertion is
only meaningful when the build takes long enough to time reliably, and
a single build takes about 100 ms on a shared 2-vCPU Xeon — cheap
enough for the smoke tree.
"""

import time
from array import array

from repro.core import resolve_order_strategy
from repro.core.butterfly import butterfly_build
from repro.core.labeling import TOLLabeling
from repro.graph.generators import random_dag
from repro.obs import trace
from repro.service.server import ReachabilityService

from _config import QUICK, cached

NUM_VERTICES = 5000
NUM_EDGES = 20000

#: Maximum allowed (instrumented, tracing off) / (uninstrumented) ratio.
OVERHEAD_BUDGET = 1.03

#: Min-of-N repetitions per variant (doubled on each failed try).
REPS = 5 if QUICK else 7


def _graph_and_order():
    def build():
        graph = random_dag(NUM_VERTICES, NUM_EDGES, seed=42)
        order = resolve_order_strategy("butterfly-u")(graph)
        return graph, order

    return cached(("obs-overhead", NUM_VERTICES, NUM_EDGES), build)


def _uninstrumented_build(graph, order):
    """``butterfly_build`` with every tracing call deleted.

    A line-for-line replica of ``butterfly._build_csr``'s pruned path —
    same snapshot, same flat-array peeling loop — minus the span/event
    calls and the residual-edge accounting they require.  Keep it in sync
    with the kernel when that changes, or the budget assertion measures
    the wrong thing.
    """
    snap = graph.csr()
    snap.topological_ids()
    labeling = TOLLabeling(order)
    n = snap.num_vertices
    if not n:
        return labeling
    snap_ids = snap.interner.ids
    vcs = list(map(snap_ids.__getitem__, order))
    lab_of = [0] * n
    for rank, vc in enumerate(vcs):
        lab_of[vc] = rank
    oo = snap.out_offsets
    ot = list(snap.out_targets)
    out_rows = [ot[oo[i]:oo[i + 1]] for i in range(n)]
    io_ = snap.in_offsets
    it = list(snap.in_targets)
    in_rows = [it[io_[i]:io_[i + 1]] for i in range(n)]
    in_bufs = [[] for _ in range(n)]
    out_bufs = [[] for _ in range(n)]
    peeled = 2 * n + 1
    state = [0] * n
    queue = [0] * n
    stamp = 0
    for vlab, vc in enumerate(vcs):
        for rows, my_labels, their_bufs in (
            (out_rows, out_bufs[vlab], in_bufs),
            (in_rows, in_bufs[vlab], out_bufs),
        ):
            if not rows[vc]:
                continue
            stamp += 1
            state[vc] = stamp
            queue[0] = vc
            head = 0
            tail = 1
            if my_labels:
                ml_lo = my_labels[0]
                ml_hi = my_labels[-1]
                ml_disjoint = frozenset(my_labels).isdisjoint
            else:
                ml_lo = peeled
                ml_hi = -1
            while head < tail:
                for u in rows[queue[head]]:
                    if state[u] >= stamp:
                        continue
                    state[u] = stamp
                    ulab = lab_of[u]
                    theirs = their_bufs[ulab]
                    if (
                        theirs
                        and theirs[0] <= ml_hi
                        and ml_lo <= theirs[-1]
                        and not ml_disjoint(theirs)
                    ):
                        continue
                    theirs.append(vlab)
                    queue[tail] = u
                    tail += 1
                head += 1
        state[vc] = peeled
    for bufs, ids, holders in (
        (in_bufs, labeling.in_ids, labeling.in_holders),
        (out_bufs, labeling.out_ids, labeling.out_holders),
    ):
        for j in range(n):
            labels = bufs[j]
            ids[j] = array("i", labels)
            for x in labels:
                holders[x].append(j)
    return labeling


def _min_time(fn, reps):
    """Best-of-*reps* wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _elapsed(fn, *args):
    """Wall time of one ``fn(*args)`` call in seconds."""
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _measure_ratio(reps):
    """(ratio, instrumented_s, baseline_s) with interleaved min-of-N.

    The variants alternate within one loop rather than running as two
    back-to-back phases: on a loaded (or single-core) box, load that
    drifts between phases would bias the ratio even though min-of-N
    absorbs spikes *within* each variant's reps.  Which variant runs
    first also alternates from rep to rep: the first-timed build of a
    pair pays for the cache and allocator state the other one left, and
    a fixed order put that cost on one side of the ratio every time.
    """
    graph, order = _graph_and_order()
    assert not trace.active()
    baseline = instrumented = float("inf")
    for rep in range(reps):
        if rep % 2:
            instrumented = min(
                instrumented, _elapsed(butterfly_build, graph, order)
            )
        baseline = min(baseline, _elapsed(_uninstrumented_build, graph, order))
        if not rep % 2:
            instrumented = min(
                instrumented, _elapsed(butterfly_build, graph, order)
            )
    return instrumented / baseline, instrumented, baseline


def test_disabled_overhead_within_budget(benchmark):
    # Up to two retries, doubling reps each time: a page fault or CPU
    # migration in a single rep can inflate an estimate on loaded
    # (especially single-core) CI boxes, and min-of-N converges as N
    # grows.  The budget itself never loosens.
    for attempt in range(3):
        ratio, instrumented, baseline = _measure_ratio(REPS << attempt)
        if ratio < OVERHEAD_BUDGET:
            break
    graph, order = _graph_and_order()
    benchmark.pedantic(
        lambda: butterfly_build(graph, order), rounds=1, iterations=1
    )
    benchmark.extra_info["baseline_s"] = round(baseline, 6)
    benchmark.extra_info["instrumented_off_s"] = round(instrumented, 6)
    benchmark.extra_info["ratio"] = round(ratio, 4)
    assert ratio < OVERHEAD_BUDGET, (
        f"tracing-disabled butterfly_build is {(ratio - 1) * 100:.2f}% "
        f"slower than the uninstrumented baseline "
        f"(budget {(OVERHEAD_BUDGET - 1) * 100:.0f}%): "
        f"{instrumented * 1e3:.2f}ms vs {baseline * 1e3:.2f}ms"
    )


def test_enabled_build_cost(benchmark):
    """Informational: full tracing (registry + per-level events) on."""
    graph, order = _graph_and_order()

    def traced_build():
        with trace.capture() as registry:
            butterfly_build(graph, order)
        return registry

    registry = benchmark.pedantic(traced_build, rounds=1, iterations=1)
    snap = registry.snapshot()
    assert snap["counters"]["event.tol.build.level"] == NUM_VERTICES
    off = _min_time(lambda: butterfly_build(graph, order), REPS)
    on = _min_time(traced_build, REPS)
    benchmark.extra_info["tracing_off_s"] = round(off, 6)
    benchmark.extra_info["tracing_on_s"] = round(on, 6)
    benchmark.extra_info["enabled_ratio"] = round(on / off, 3)


def test_service_query_overhead_disabled(benchmark):
    """Query path with tracing off: the production steady state."""
    graph, _ = _graph_and_order()
    service = ReachabilityService(graph, cache_size=0)
    vertices = list(graph.vertices())
    pairs = [
        (vertices[i % len(vertices)], vertices[(i * 7 + 3) % len(vertices)])
        for i in range(200 if QUICK else 2000)
    ]
    assert not trace.active()
    benchmark.pedantic(
        lambda: service.query_batch(pairs), rounds=3, iterations=1
    )
    benchmark.extra_info["queries"] = len(pairs)
    assert service.registry.counter("service.queries").value > 0


def test_query_timings_path_equivalent(benchmark):
    """The timed query path agrees with the untimed one and stays cheap."""
    graph, _ = _graph_and_order()
    service = ReachabilityService(graph, cache_size=0)
    vertices = list(graph.vertices())
    pairs = [
        (vertices[i % len(vertices)], vertices[(i * 7 + 3) % len(vertices)])
        for i in range(200 if QUICK else 2000)
    ]
    plain = service.query_batch_with_epoch(pairs)[0]
    timings: dict = {}
    timed = benchmark.pedantic(
        lambda: service.query_batch_with_epoch(pairs, timings=timings),
        rounds=3, iterations=1,
    )[0]
    assert timed == plain
    assert timings["cache_hits"] + timings["cache_misses"] > 0
    assert timings["probe_ms"] >= 0.0 and timings["lock_ms"] >= 0.0
    untimed_s = _min_time(
        lambda: service.query_batch_with_epoch(pairs), REPS
    )
    timed_s = _min_time(
        lambda: service.query_batch_with_epoch(pairs, timings={}), REPS
    )
    benchmark.extra_info["untimed_s"] = round(untimed_s, 6)
    benchmark.extra_info["timed_s"] = round(timed_s, 6)
    benchmark.extra_info["timed_ratio"] = round(timed_s / untimed_s, 3)
