"""Served-path benchmark for the reachability server.

Usage (from the root of a checkout)::

    python3 servebench/run.py --workload read-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the served measurement and reports the end-to-end
metrics; ``--trace 1`` runs the per-layer traced replay of the same
inputs and reports the per-layer metrics next to a short untraced served
pass.  Human-readable lines go to stdout first; the last line is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when a result was printed.  See servebench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from multiprocessing import resource_tracker
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BenchError, make_run_dir, require_sources  # noqa: E402

#: Units of every metric, in the order they are printed.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "request_ms": "ms",
    "index_bytes_per_vertex": "B",
    "rss_mb": "MiB",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--vertices", type=int, default=None,
                   help="override the workload's graph size (tests)")
    return p.parse_args(argv)


def log(message: str) -> None:
    print(f"# {message}", flush=True)


def pin_to_one_cpu() -> int:
    """Pin this process, and so every process it spawns, to one CPU.

    Client and server then hand each request over on one run queue.  On
    two vCPUs the hand-over between CPUs, through an idle vCPU's wake-up,
    made the round trip slower and its run-to-run spread two to three
    times wider.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def execute(args: argparse.Namespace) -> dict:
    """Run one measurement and return the result object."""
    require_sources()
    import inputs as bench_inputs

    try:
        workload = bench_inputs.WORKLOADS[args.workload]
    except KeyError:
        known = ", ".join(bench_inputs.WORKLOADS)
        raise BenchError(f"unknown workload {args.workload!r}; known: {known}")
    if args.seconds < 1:
        raise BenchError("--seconds must be at least 1")
    cpu = pin_to_one_cpu()
    run_dir = make_run_dir(args.workload, args.seed)
    outcome = None
    try:
        inputs = bench_inputs.build_inputs(
            workload, args.seed, run_dir, args.seconds, vertices=args.vertices
        )
        log(f"{workload.name}: {workload.dataset} |V|={inputs.graph.num_vertices} "
            f"|E|={inputs.graph.num_edges}, {len(inputs.ops)} update ops, "
            f"seed {args.seed}, pinned to CPU {cpu}")
        if args.trace:
            import traced

            outcome = traced.run(workload, inputs, args.seconds, run_dir, log)
            units = traced.PER_LAYER
        else:
            import served

            outcome = served.run(workload, inputs, args.seconds, run_dir, log)
            units = END_TO_END
    finally:
        # Keep the graph, logs and WAL of a run that raised or failed.
        if outcome is not None and outcome["tally"].failed == 0:
            shutil.rmtree(run_dir, ignore_errors=True)
        else:
            log(f"run directory kept: {run_dir}")
    tally, metrics = outcome["tally"], outcome["metrics"]
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    for note in tally.notes:
        log(f"FAILED {note}")
    log(f"error_rate {tally.failed}/{tally.attempted}"
        f" = {tally.failed / tally.attempted:.6f}, wrong answers {tally.wrong}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = execute(args)
    except BenchError as exc:
        print(f"servebench: {exc}", file=sys.stderr)
        return 2
    finally:
        # Attaching shared memory starts multiprocessing's resource
        # tracker, a child process; end it and wait for it here.
        resource_tracker._resource_tracker._stop()
    for name, metric in result["metrics"].items():
        log(f"{name:>28} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
