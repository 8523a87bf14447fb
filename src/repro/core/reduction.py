"""Iterative label reduction (Section 6).

A TOL index's quality is decided entirely by its level order, and the
update algorithms of Section 5 can *re-position* a vertex: delete it
(Algorithm 4), then re-insert it at the size-minimizing level (Algorithms
1–3).  Because the re-insertion considers the vertex's old position among
the candidates, one delete/re-insert round trip can never grow the index —
and on indices built from weak orders (TF's topological order, DL's degree
order) it shrinks them dramatically (Table 4 of the paper reports up to
96% size reduction for TF).

:func:`reduce_labels` sweeps every vertex once per round; rounds repeat
until a fixpoint or *max_rounds*.  The function reports per-round sizes so
benchmarks can chart convergence.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass, field
from typing import Optional

from ..graph.digraph import DiGraph
from ..obs import trace
from .deletion import delete_vertex
from .insertion import insert_vertex
from .labeling import TOLLabeling

__all__ = ["ReductionReport", "reduce_labels"]

Vertex = Hashable


@dataclass
class ReductionReport:
    """Outcome of a label-reduction run.

    Attributes
    ----------
    initial_size:
        ``|L|`` before any reduction.
    round_sizes:
        ``|L|`` after each completed round.
    vertices_moved:
        How many delete/re-insert round trips changed a vertex's level.
    """

    initial_size: int
    round_sizes: list[int] = field(default_factory=list)
    vertices_moved: int = 0

    @property
    def final_size(self) -> int:
        """``|L|`` after the last round (initial size if none ran)."""
        return self.round_sizes[-1] if self.round_sizes else self.initial_size

    @property
    def reduction(self) -> int:
        """``ΔL``: absolute number of labels removed."""
        return self.initial_size - self.final_size

    @property
    def reduction_ratio(self) -> float:
        """``ΔL / |L|`` as in Table 4 (0.0 for an empty initial index)."""
        if self.initial_size == 0:
            return 0.0
        return self.reduction / self.initial_size


def reduce_labels(
    graph: DiGraph,
    labeling: TOLLabeling,
    *,
    max_rounds: int = 1,
    sweep: Optional[Sequence[Vertex]] = None,
    on_vertex: Optional[Callable[[Vertex, int], None]] = None,
) -> ReductionReport:
    """Shrink *labeling* by re-positioning every vertex (Section 6).

    Parameters
    ----------
    graph:
        The indexed DAG; temporarily mutated (each vertex is removed and
        re-added) but identical to its input state on return.
    labeling:
        The live index; improved in place.
    max_rounds:
        Upper bound on full sweeps.  A round that moves no vertex stops
        the loop early.
    sweep:
        Optional explicit vertex visiting order.  The default visits
        vertices from the lowest level up — low-level vertices are the
        likeliest to be badly placed by a weak initial order, and moving
        them first lets later candidates see the improved landscape.
    on_vertex:
        Optional callback ``(vertex, current_size)`` after each round
        trip, for progress reporting in long benchmark runs.

    Returns
    -------
    ReductionReport
    """
    report = ReductionReport(initial_size=labeling.size())
    with trace.span("tol.reduction") as sp:
        if sp:
            sp.set("initial_size", report.initial_size)
            sp.set("max_rounds", max_rounds)
        for round_no in range(1, max_rounds + 1):
            moved = 0
            order = (
                list(sweep) if sweep is not None else list(labeling.order)[::-1]
            )
            for v in order:
                ins = graph.in_neighbors(v)
                outs = graph.out_neighbors(v)
                anchor_above = labeling.order.predecessor(v)
                anchor_below = labeling.order.successor(v)
                delete_vertex(graph, labeling, v)
                graph.add_vertex_if_absent(v)
                for u in ins:
                    graph.add_edge(u, v)
                for w in outs:
                    graph.add_edge(v, w)
                insert_vertex(graph, labeling, v)
                new_above = labeling.order.predecessor(v)
                new_below = labeling.order.successor(v)
                if (new_above, new_below) != (anchor_above, anchor_below):
                    moved += 1
                if on_vertex is not None:
                    on_vertex(v, labeling.size())
            report.round_sizes.append(labeling.size())
            report.vertices_moved += moved
            # The per-round |L| trajectory of Table 4 / Figure "conv".
            trace.event(
                "tol.reduction.round",
                round=round_no,
                size=report.round_sizes[-1],
                moved=moved,
            )
            if moved == 0:
                break
        if sp:
            sp.set("rounds", len(report.round_sizes))
            sp.set("final_size", report.final_size)
            sp.set("vertices_moved", report.vertices_moved)
    return report
