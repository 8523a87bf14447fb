"""cProfile the Butterfly build on the acceptance-scale synthetic graph.

Run via ``make profile`` (or directly with ``PYTHONPATH=src``).  Profiles
``butterfly_build`` on ``random_dag(5000, 20000)`` under the BU order and
prints the top 25 entries by cumulative time — the view that guided the
flat-array kernel work: when ``_build_csr``'s self-time dominates and the
callee rows are C-level primitives (``isdisjoint``, ``append``), the
kernel is interpreter-bound and further wins need fewer loop iterations,
not cheaper ones.

Options: ``--order`` picks the order strategy, ``--prune false`` the
verbatim Algorithm-5 variant.
"""

import argparse
import cProfile
import pstats

from repro.core.butterfly import butterfly_build
from repro.core.orders import resolve_order_strategy
from repro.graph.generators import random_dag

NUM_VERTICES = 5000
NUM_EDGES = 20000
TOP = 25


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", default="butterfly-u")
    parser.add_argument(
        "--prune", choices=("true", "false"), default="true"
    )
    args = parser.parse_args()

    graph = random_dag(NUM_VERTICES, NUM_EDGES, seed=0)
    order = resolve_order_strategy(args.order)(graph)
    prune = args.prune == "true"
    print(
        f"profiling butterfly_build(random_dag({NUM_VERTICES}, "
        f"{NUM_EDGES}), order={args.order!r}, prune={prune})"
    )
    profiler = cProfile.Profile()
    profiler.enable()
    butterfly_build(graph, order, prune=prune)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(TOP)


if __name__ == "__main__":
    main()
