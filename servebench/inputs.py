"""Workload definitions and the seeded inputs they are run on.

Everything a run sends is generated here before the server starts: the
graph file, the read request batches, the update sequence and the BFS
check sample.  The server receives only the graph file and the requests.
Same seed, same sizes -> identical inputs.

The graph and the update sequence are fixed per workload: they come
from ``FIXED_SEED``, not ``--seed``.  As with the paper's datasets every
run indexes the same graph, and every run replays the same updates, so
``index_bytes_per_vertex`` and the WAL suffix that writer failover
replays repeat exactly; the run-to-run spread is not the spread between random
graphs (on the power-law stand-ins the label count alone moves by 20%
between generator seeds) or between random victims.  ``--seed`` drives
the read traffic and the BFS check sample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from repro import datasets
from repro.bench.workloads import generate_queries
from repro.core.ops import UpdateOp
from repro.graph.dag import topological_rank
from repro.graph.io import read_edge_list, write_edge_list

#: The single-process service's result-cache capacity (``--cache-size``).
CACHE_CAPACITY = 4096


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one server configuration.

    ``server_args`` may contain ``{wal}``, replaced by a fresh WAL
    directory per boot.  ``traffic`` is the timed part of a run:

    * ``"cold"``: closed-loop reads of the paper's topo-aware uniform
      pairs, cycled over far more pairs than the cache holds;
    * ``"churn"``: the fixed update round, replayed ``passes`` times
      closed loop, each update waiting until a read on the other
      connection sees it.

    Read workloads still get the update round: the traced run replays it
    through the update layers.
    """

    name: str
    why: str
    dataset: str
    vertices: int
    server_args: tuple[str, ...]
    batch: int
    traffic: str
    #: Vertices deleted (then re-inserted in reverse) in the update round.
    k: int
    #: Seconds of ``--seconds`` per pass over the update round (churn;
    #: rounded up to whole passes, and at least one).
    pass_seconds: int = 0


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="read-cold",
            why="uniform topo-aware reads on a label-heavy graph: the cache "
                "misses and every pair runs the label intersection",
            dataset="go-uniprot",
            vertices=10000,
            server_args=(),
            batch=64,
            traffic="cold",
            k=2,
        ),
        Workload(
            name="churn",
            why="fixed update sequence on a WAL-backed multi-process server: "
                "update kernels, WAL, checkpoint, snapshot publish, failover",
            dataset="RG5",
            vertices=10000,
            server_args=("--workers", "1", "--wal", "{wal}", "--fsync", "batch"),
            batch=16,
            traffic="churn",
            pass_seconds=3,
            k=2,
        ),
    )
}

#: Seed of every workload's graph and update sequence.
FIXED_SEED = 0
#: Requests pre-generated per read connection cycle.  Every request is
#: timed many times per run; at 64 pairs a request the cycle still holds
#: four times the pairs the result cache does, so an LRU cache never hits.
READ_CYCLE = 256
#: Untimed requests before measuring, enough to build the lazy label
#: mirrors.
WARM_REQUESTS = 128
#: Pairs checked against BFS after each window.
CHECK_PAIRS = 256


@dataclass
class Inputs:
    graph_path: Path
    graph: object  # DiGraph as the server parses it
    read_batches: list  # timed reads (read workloads) and warm-up
    update_batches: list  # reads beside the updates, of protected pairs
    ops: list  # the UpdateOp round; restores the graph when replayed
    passes: int  # times the timed phase of churn replays the round
    check_pairs: list
    probe_vertex: int  # fresh vertex the recovery probe inserts


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}:{purpose}")


def _chunks(pairs, size):
    return [pairs[i:i + size] for i in range(0, len(pairs) - size + 1, size)]


def cold_batches(graph, batch: int, seed: int, vertices) -> list:
    """The paper's topo-aware uniform queries among *vertices*, chunked
    into requests."""
    pairs = list(generate_queries(
        graph.subgraph(vertices), READ_CYCLE * batch, seed=seed).pairs)
    return _chunks(pairs, batch)


def update_round(graph, k: int, seed: int):
    """A fixed delete-k-then-reinsert-in-reverse round with edge ops.

    The round deletes *k* victims one at a time, interleaving in turn an
    edge insert (forward in topological rank, so the graph stays a DAG)
    and an edge delete between protected vertices; the re-insert half
    replays the victims in reverse with their recorded neighbours and
    undoes each edge op.  The round restores the graph, so it can be
    replayed any number of times.  Returns ``(ops, protected)``:
    *protected* vertices are never deleted and are safe to read during
    the round.
    """
    rng = _rng(seed, "updates")
    rank = topological_rank(graph)
    vertices = sorted(graph.vertices())
    # Victims are stratified by topological rank, one per stratum: an
    # update's cost depends on where its vertex sits in the DAG, so the
    # round mixes cheap and costly ops.
    by_rank = sorted(vertices, key=rank.__getitem__)
    strata = [by_rank[i * len(by_rank) // k:(i + 1) * len(by_rank) // k]
              for i in range(k)]
    victims = [rng.choice(strata[i]) for i in rng.sample(range(k), k)]
    protected = sorted(set(vertices) - set(victims))
    model = graph.copy()
    ops: list[UpdateOp] = []

    def do(op):
        op.apply_to_graph(model)
        ops.append(op)

    deleted, undo = [], []
    for i, v in enumerate(victims):
        ins = sorted(model.in_neighbors(v))
        outs = sorted(model.out_neighbors(v))
        do(UpdateOp.delete_vertex(v))
        deleted.append((v, ins, outs))
        # Alternate, so the round mixes both edge-op kinds.
        if i % 2 == 0:
            while True:
                a, b = rng.sample(protected, 2)
                if rank[a] > rank[b]:
                    a, b = b, a
                if not model.has_edge(a, b):
                    break
            do(UpdateOp.insert_edge(a, b))
            undo.append(UpdateOp.delete_edge(a, b))
        else:
            while True:
                a = rng.choice(protected)
                heads = sorted(set(model.out_neighbors(a)).intersection(protected))
                if heads:
                    break
            b = rng.choice(heads)
            do(UpdateOp.delete_edge(a, b))
            undo.append(UpdateOp.insert_edge(a, b))
    for v, ins, outs in reversed(deleted):
        do(UpdateOp.insert_vertex(v, ins, outs))
        if undo:
            do(undo.pop())
    while undo:
        do(undo.pop())
    return ops, protected


def check_sample(graph, seed: int, count: int = CHECK_PAIRS) -> list:
    """Half uniform pairs, half random-walk pairs (mostly reachable)."""
    rng = _rng(seed, "check")
    vertices = sorted(graph.vertices())
    pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(count // 2)]
    while len(pairs) < count:
        s = t = rng.choice(vertices)
        for _ in range(rng.randint(1, 6)):
            outs = sorted(graph.out_neighbors(t))
            if not outs:
                break
            t = rng.choice(outs)
        pairs.append((s, t))
    return pairs


def build_inputs(workload: Workload, seed: int, run_dir: Path, seconds: int,
                 *, vertices: int | None = None) -> Inputs:
    """Generate every input of one run into *run_dir*."""
    n = vertices if vertices is not None else workload.vertices
    generated = datasets.load(workload.dataset, num_vertices=n, seed=FIXED_SEED)
    graph_path = run_dir / f"{workload.dataset}-{n}.txt"
    write_edge_list(generated, graph_path)
    graph = read_edge_list(graph_path)  # exactly what the server parses
    vertices_sorted = sorted(graph.vertices())
    ops, protected = update_round(graph, workload.k, FIXED_SEED)
    update_batches = cold_batches(graph, 16, seed + 1, protected)
    if workload.traffic == "cold":
        read_batches = cold_batches(graph, workload.batch, seed, vertices_sorted)
    else:
        read_batches = update_batches
    return Inputs(
        graph_path=graph_path,
        graph=graph,
        read_batches=read_batches,
        update_batches=update_batches,
        ops=ops,
        passes=-(-seconds // workload.pass_seconds) if workload.pass_seconds else 1,
        check_pairs=check_sample(graph, seed),
        probe_vertex=max(vertices_sorted) + 1,
    )
