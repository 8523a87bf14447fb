"""Update traces: a replayable log format for dynamic-graph workloads.

The paper's update experiment (delete 10⁴ vertices, re-insert them) is one
fixed protocol; real systems want to capture *their* mutation streams and
replay them against candidate indices.  A trace is a plain-text op log:

::

    # tol-trace v1
    addv 17 in=3,5 out=9
    adde 2 9
    query 3 9
    delv 5
    dele 2 9

One operation per line; ``#`` comments; vertex tokens that parse as
integers become integers.  ``query`` lines carry the expected workload —
replaying interleaves them with the mutations, which is how update-induced
index decay (e.g. Dagger's) actually shows up in production.

:func:`generate_trace` synthesizes a random valid trace from a seed graph;
:func:`replay_trace` runs a trace against any index adapter from
:mod:`repro.bench.harness` and reports per-op-class timing totals.
"""

from __future__ import annotations

import random
import time
from collections.abc import Hashable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from ..errors import WorkloadError
from ..graph.digraph import DiGraph
from ..graph.scc import condense
from ..graph.traversal import bidirectional_reachable

__all__ = [
    "TraceOp",
    "Trace",
    "ReplayReport",
    "parse_trace",
    "format_trace",
    "read_trace",
    "write_trace",
    "generate_trace",
    "replay_trace",
]

Vertex = Hashable
PathLike = Union[str, Path]

_HEADER = "# tol-trace v1"
_KINDS = ("addv", "delv", "adde", "dele", "query")


@dataclass(frozen=True)
class TraceOp:
    """One trace operation.

    ``kind`` is one of ``addv`` (args: vertex, in-list, out-list), ``delv``
    (vertex), ``adde``/``dele`` (tail, head) or ``query`` (source, target).
    """

    kind: str
    vertex: Optional[Vertex] = None
    ins: tuple[Vertex, ...] = ()
    outs: tuple[Vertex, ...] = ()
    tail: Optional[Vertex] = None
    head: Optional[Vertex] = None

    def render(self) -> str:
        """Serialize this op as one trace line."""
        if self.kind == "addv":
            parts = [f"addv {self.vertex}"]
            if self.ins:
                parts.append("in=" + ",".join(str(v) for v in self.ins))
            if self.outs:
                parts.append("out=" + ",".join(str(v) for v in self.outs))
            return " ".join(parts)
        if self.kind == "delv":
            return f"delv {self.vertex}"
        if self.kind in ("adde", "dele"):
            return f"{self.kind} {self.tail} {self.head}"
        if self.kind == "query":
            return f"query {self.tail} {self.head}"
        raise WorkloadError(f"unknown trace op kind {self.kind!r}")


@dataclass
class Trace:
    """An ordered list of :class:`TraceOp`."""

    ops: list[TraceOp] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def counts(self) -> dict[str, int]:
        """Return ``{kind: occurrences}``."""
        out = {kind: 0 for kind in _KINDS}
        for op in self.ops:
            out[op.kind] += 1
        return out


def _vertex(token: str) -> Vertex:
    try:
        return int(token)
    except ValueError:
        return token


def _vertex_csv(text: str) -> tuple[Vertex, ...]:
    return tuple(_vertex(tok) for tok in text.split(",") if tok)


def parse_trace(text: str) -> Trace:
    """Parse trace *text* (see module docstring for the grammar)."""
    ops: list[TraceOp] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        try:
            if kind == "addv":
                vertex = _vertex(tokens[1])
                ins: tuple[Vertex, ...] = ()
                outs: tuple[Vertex, ...] = ()
                for extra in tokens[2:]:
                    if extra.startswith("in="):
                        ins = _vertex_csv(extra[3:])
                    elif extra.startswith("out="):
                        outs = _vertex_csv(extra[4:])
                    else:
                        raise WorkloadError(
                            f"line {lineno}: unknown addv argument {extra!r}"
                        )
                ops.append(TraceOp("addv", vertex=vertex, ins=ins, outs=outs))
            elif kind == "delv":
                ops.append(TraceOp("delv", vertex=_vertex(tokens[1])))
            elif kind in ("adde", "dele", "query"):
                ops.append(
                    TraceOp(kind, tail=_vertex(tokens[1]), head=_vertex(tokens[2]))
                )
            else:
                raise WorkloadError(f"line {lineno}: unknown op {kind!r}")
        except IndexError:
            raise WorkloadError(
                f"line {lineno}: op {kind!r} is missing arguments"
            ) from None
    return Trace(ops)


def format_trace(trace: Trace) -> str:
    """Serialize *trace* (inverse of :func:`parse_trace`)."""
    lines = [_HEADER]
    lines.extend(op.render() for op in trace.ops)
    return "\n".join(lines) + "\n"


def read_trace(path: PathLike) -> Trace:
    """Read a trace file."""
    return parse_trace(Path(path).read_text(encoding="utf-8"))


def write_trace(trace: Trace, path: PathLike) -> None:
    """Write a trace file."""
    Path(path).write_text(format_trace(trace), encoding="utf-8")


def _reach_closure(graph: DiGraph) -> tuple[dict, list[int]]:
    """Transitive closure of *graph* as Python-int bitsets.

    Returns ``(component_of, reach)``: ``u`` reaches ``v`` iff bit
    ``component_of[v]`` of ``reach[component_of[u]]`` is set.  The
    closure is taken over the SCC condensation, whose component ids
    are a topological order, so one sweep from the sinks up ORs each
    component's successors into it.
    """
    condensation = condense(graph)
    dag = condensation.dag
    reach = [0] * condensation.num_components
    for c in reversed(range(len(reach))):
        bits = 1 << c
        for d in dag.out_neighbors(c):
            bits |= reach[d]
        reach[c] = bits
    return condensation.component_of, reach


def generate_trace(
    graph: DiGraph,
    num_ops: int,
    *,
    seed: int = 0,
    query_fraction: float = 0.5,
    vertex_namespace: str = "t",
    acyclic: bool = False,
) -> Trace:
    """Synthesize a random valid trace against (a copy of) *graph*.

    Mutations are split evenly between vertex inserts, vertex deletes,
    edge inserts and edge deletes; each op is validated against the
    evolving graph so the trace replays cleanly.  Inserted vertices are
    named ``{vertex_namespace}0, {vertex_namespace}1, ...`` to avoid
    collisions with existing ids.

    With ``acyclic=True`` every mutation additionally preserves
    acyclicity, producing a trace any DAG-only index can absorb.
    """
    if not 0 <= query_fraction <= 1:
        raise WorkloadError("query_fraction must be within [0, 1]")
    rng = random.Random(seed)
    live = graph.copy()
    ops: list[TraceOp] = []
    fresh = 0
    while len(ops) < num_ops:
        vertices = list(live.vertices())
        if rng.random() < query_fraction and vertices:
            s, t = rng.choice(vertices), rng.choice(vertices)
            ops.append(TraceOp("query", tail=s, head=t))
            continue
        roll = rng.random()
        if roll < 0.25 or not vertices:
            name = f"{vertex_namespace}{fresh}"
            fresh += 1
            ins = tuple(v for v in vertices if rng.random() < 2.0 / max(len(vertices), 1))
            outs = tuple(
                v for v in vertices
                if v not in ins and rng.random() < 2.0 / max(len(vertices), 1)
            )
            if acyclic and ins and outs:
                # Drop out-edges whose target reaches an in-neighbor.
                outs = tuple(
                    w for w in outs
                    if not any(bidirectional_reachable(live, w, u) for u in ins)
                )
            live.add_vertex(name)
            for u in ins:
                live.add_edge(u, name)
            for w in outs:
                live.add_edge(name, w)
            ops.append(TraceOp("addv", vertex=name, ins=ins, outs=outs))
        elif roll < 0.5 and len(vertices) > 1:
            victim = rng.choice(vertices)
            live.remove_vertex(victim)
            ops.append(TraceOp("delv", vertex=victim))
        elif roll < 0.75:
            candidates = [
                (a, b)
                for a in vertices
                for b in vertices
                if a != b and not live.has_edge(a, b)
            ]
            if acyclic:
                component_of, reach = _reach_closure(live)
                candidates = [
                    (a, b) for a, b in candidates
                    if not reach[component_of[b]] >> component_of[a] & 1
                ]
            if not candidates:
                continue
            tail, head = rng.choice(candidates)
            live.add_edge(tail, head)
            ops.append(TraceOp("adde", tail=tail, head=head))
        else:
            edges = list(live.edges())
            if not edges:
                continue
            tail, head = rng.choice(edges)
            live.remove_edge(tail, head)
            ops.append(TraceOp("dele", tail=tail, head=head))
    return Trace(ops)


@dataclass
class ReplayReport:
    """Outcome of replaying a trace against an index.

    ``seconds`` maps each op kind to its total wall time; ``answers``
    holds the query results in trace order; ``skipped`` counts mutations
    the index rejected (e.g. a DAG-only index refusing a cycle-creating
    edge) — zero for the cycle-capable adapters.
    """

    seconds: dict[str, float]
    answers: list[bool]
    operations: int
    skipped: int = 0

    @property
    def total_seconds(self) -> float:
        """Wall time across all op classes."""
        return sum(self.seconds.values())


def replay_trace(index, trace: Trace) -> ReplayReport:
    """Apply *trace* to *index* (any adapter with the harness protocol).

    Edge ops are emulated for adapters that only expose vertex ops by
    raising :class:`WorkloadError` — generate vertex-only traces for those
    (``query_fraction`` plus ``addv``/``delv`` cover the paper's update
    model).
    """
    seconds = {kind: 0.0 for kind in _KINDS}
    answers: list[bool] = []
    skipped = 0
    for op in trace.ops:
        start = time.perf_counter()
        if op.kind == "addv":
            index.insert_vertex(op.vertex, op.ins, op.outs)
        elif op.kind == "delv":
            index.delete_vertex(op.vertex)
        elif op.kind == "adde":
            if not hasattr(index, "insert_edge"):
                raise WorkloadError(
                    f"{type(index).__name__} does not support edge insertion;"
                    " use a vertex-only trace"
                )
            index.insert_edge(op.tail, op.head)
        elif op.kind == "dele":
            if not hasattr(index, "delete_edge"):
                raise WorkloadError(
                    f"{type(index).__name__} does not support edge deletion;"
                    " use a vertex-only trace"
                )
            index.delete_edge(op.tail, op.head)
        else:  # query
            answers.append(index.query(op.tail, op.head))
        seconds[op.kind] += time.perf_counter() - start
    return ReplayReport(
        seconds=seconds,
        answers=answers,
        operations=len(trace.ops),
        skipped=skipped,
    )
