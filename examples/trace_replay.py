#!/usr/bin/env python3
"""Operational workflow: persist an index, capture a trace, replay it.

The production shape of the paper's system: build the index once, ship it
to query servers, and keep it in sync by replaying the mutation stream.
This example walks that loop end to end:

1. generate a GovWild-style graph and build a BU index,
2. save it to disk as a TOLF pack (`.tolf`) and load it back,
3. synthesize a mixed mutation/query trace and persist it as an op log,
4. replay the trace against the restored index and against Dagger,
   cross-checking every query answer,
5. print per-op-class timing and label statistics before/after the churn.

Run:  python examples/trace_replay.py [--vertices 600] [--ops 300]
"""

import argparse
import tempfile
from pathlib import Path

from repro import ReachabilityIndex, load_dataset, labeling_stats
from repro.baselines.dagger import DaggerIndex
from repro.bench.trace import generate_trace, read_trace, replay_trace, write_trace


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=600)
    parser.add_argument("--ops", type=int, default=300)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    workdir = Path(tempfile.mkdtemp(prefix="tol-trace-"))
    graph = load_dataset("GovWild", num_vertices=args.vertices, seed=args.seed)
    print(f"graph: |V|={graph.num_vertices} |E|={graph.num_edges}")

    # 1-2. Build and round-trip the index through disk.  The pack holds
    # the labels and the original graph with its SCC condensation, so the
    # loaded ReachabilityIndex takes updates without a rebuild.
    index = ReachabilityIndex(graph, order="butterfly-u")
    from repro import save_index, load_index

    index_path = workdir / "govwild.tolf"
    save_index(index, index_path)
    restored = load_index(index_path)
    print(
        f"index round-tripped through {index_path} "
        f"({index_path.stat().st_size} bytes on disk)"
    )
    assert restored.size() == index.size()
    print("before churn:", labeling_stats(index.tol.labeling).render())

    # 3. Capture a mutation/query stream as a replayable op log.
    trace = generate_trace(graph, args.ops, seed=args.seed, query_fraction=0.6)
    trace_path = workdir / "mutations.trace"
    write_trace(trace, trace_path)
    print(f"\ntrace: {trace.counts()} -> {trace_path}")

    # 4. Replay against both dynamic indices; answers must agree.
    trace = read_trace(trace_path)
    tol_report = replay_trace(restored, trace)
    dagger_report = replay_trace(DaggerIndex(graph), trace)
    assert tol_report.answers == dagger_report.answers
    print(f"replayed {tol_report.operations} ops on both indices; "
          f"{len(tol_report.answers)} query answers all agree")

    print(f"\n{'op':7s} {'TOL/BU':>10s} {'Dagger':>10s}")
    for kind in ("addv", "delv", "adde", "dele", "query"):
        print(
            f"{kind:7s} {tol_report.seconds[kind] * 1e3:8.1f}ms "
            f"{dagger_report.seconds[kind] * 1e3:8.1f}ms"
        )
    print(
        f"{'total':7s} {tol_report.total_seconds * 1e3:8.1f}ms "
        f"{dagger_report.total_seconds * 1e3:8.1f}ms"
    )

    # 5. Post-churn index health.
    churned = ReachabilityIndex(graph, order="butterfly-u")
    replay_trace(churned, trace)
    print("\nafter churn: ", labeling_stats(churned.tol.labeling).render())


if __name__ == "__main__":
    main()
