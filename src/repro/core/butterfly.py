"""Butterfly: construct a TOL index for a given level order (Algorithm 5).

The algorithm peels vertices off the DAG from the highest level down.  In
iteration ``k`` it takes the level-``k`` vertex ``v``, finds everything it
can still reach (``B+(v)``) and everything that can still reach it
(``B-(v)``) in the residual graph ``G_k`` (the graph with all higher-level
vertices already removed), and offers ``v`` as an in-label to the former and
as an out-label to the latter, skipping any vertex ``u`` whose existing
labels already witness the connection (``Lout(v) ∩ Lin(u) ≠ ∅``).  Lemma 5
proves the result is exactly the TOL index of Definition 1.

Two faithful variants are provided:

* ``prune=False`` — Algorithm 5 verbatim: the BFS visits all of ``B+(v)`` /
  ``B-(v)`` and the cover check only gates label *insertion*.
* ``prune=True`` (default) — the cover check also gates BFS *expansion*,
  PLL-style.  This is provably equivalent: if ``w ∈ Lout(v) ∩ Lin(u)``
  then every vertex ``u'`` reached through ``u`` has ``v -> w -> u -> u'``
  with ``l(w) < l(v)``, so ``v`` could never become a label of ``u'`` via
  this path, and any alternative path to ``u'`` is explored separately.
  (The symmetric argument covers the backward search.)  On label-friendly
  orders this prunes the vast majority of the traversal and is what makes
  construction practical; the equivalence is property-tested against both
  the verbatim variant and the Definition-1 reference.

Kernel
------
The peeling sweeps run as one id-only kernel over the graph's cached
:class:`~repro.graph.csr.CSRGraph` snapshot: adjacency comes from the
snapshot's flat neighbor arrays, one int stamp per snapshot id doubles
as the removed flag and the BFS visit mark, and the BFS frontier is a
flat preallocated int queue.  No per-edge hashing, no generator frames.
The kernel is pinned to the Definition-1 reference
(:func:`repro.core.reference.reference_tol`) over both ``prune``
variants and every order strategy by
``tests/core/test_build_differential.py``.
"""

from __future__ import annotations

from array import array

from ..errors import GraphError
from ..graph.digraph import DiGraph
from ..obs import trace
from .labeling import TOLLabeling
from .order import LevelOrder

__all__ = ["butterfly_build"]


def butterfly_build(
    graph: DiGraph,
    order: LevelOrder,
    *,
    prune: bool = True,
    engine: str = "csr",
) -> TOLLabeling:
    """Build the TOL index of *graph* under *order* (Algorithm 5).

    Parameters
    ----------
    graph:
        A DAG.  Not modified (the peeling uses "removed" flags); the build
        is the last user of its cached CSR snapshot and releases it.
    order:
        The level order; must contain exactly the vertices of *graph*.
    prune:
        Use the pruned-expansion variant (see module docstring).
    engine:
        Must be ``"csr"``, the only kernel.  The keyword survives solely
        because ``servebench/traced.py`` still passes ``engine="csr"``;
        drop it together with that caller.

    Returns
    -------
    TOLLabeling
        The unique TOL index for ``(graph, order)``; shares *order*.

    Raises
    ------
    NotADagError
        If *graph* has a cycle.
    GraphError
        If *order* does not contain exactly the graph's vertices (the
        same uniform ``order=`` error type the facades raise).
    ValueError
        If *engine* is anything but ``"csr"``.
    """
    if engine != "csr":
        raise ValueError(f"unknown build engine {engine!r}; known: csr")
    if len(order) != graph.num_vertices or set(order) != set(graph.vertices()):
        raise GraphError("level order must contain exactly the graph's vertices")
    snap = graph.csr()
    graph.release_csr()
    snap.topological_ids()  # DAG check (cached for the score sweeps)

    labeling = TOLLabeling(order)
    with trace.span("tol.build") as sp:
        if sp:
            sp.set("vertices", graph.num_vertices)
            sp.set("edges", graph.num_edges)
            sp.set("prune", int(prune))
        _build_csr(snap, labeling, order, prune, sp)
        if sp:
            sp.set("labels", labeling.size())
    return labeling


def _build_csr(snap, labeling, order, prune, sp) -> None:
    """Peel every vertex via the flat-array sweeps (see module docstring).

    The BFS of both directions is inlined into the peel loop: the sweeps
    on practical orders are tiny (a handful of dequeues each), so per-call
    and per-row overheads — function frames, adjacency-slice allocations —
    would rival the useful work.  Rows are walked by index off the offset
    arrays, and one ``state`` slot per id doubles as the removed flag and
    the BFS visit stamp (``state[i] == stamp`` — seen this sweep,
    ``state[i] == peeled`` — removed, anything smaller — untouched), so
    the hot loop skips with a single load+compare.

    Label insertion is a plain ``append`` rather than
    ``TOLLabeling.add_in_id``/``add_out_id``: a fresh build interns the
    order sequence, so ``vlab`` (the level rank) is strictly greater than
    every label id already present in any buffer, and each sweep visits a
    vertex at most once — appends keep the buffers sorted and duplicate
    free.  Labels accumulate in plain per-vertex lists (list subscripts
    and appends are cheaper than ``array`` ones, and never re-box ints)
    and are packed into the labeling's ``array('i')`` buffers once at the
    end; the CSR arrays are likewise list-ified once up front.
    Inverted lists are left out of the sweeps: the packing pass walks
    the label lists in id order and appends each owner to the (fresh,
    empty) ``array('i')`` holder list of every label it holds, so
    ``Iin(v)``/``Iout(v)`` come out sorted with no sort, for both
    variants alike (sorting each sweep's receivers instead cost more
    build time, and list temporaries cost resident memory).

    The cover check is a frozenset ``isdisjoint`` over the candidate's
    label row (C-speed; ``Lout(v)``/``Lin(v)`` is frozen into a set once
    per sweep), guarded by inline emptiness/range bail-outs that kill
    the vast majority of checks without any call — an empty label set
    uses sentinel bounds that fail the range test unconditionally.
    """
    n = snap.num_vertices
    if not n:
        return
    snap_ids = snap.interner.ids
    # Snapshot id of each vertex, by level rank; a fresh labeling interns
    # the order sequence, so the labeling id of the rank-k vertex is
    # exactly k — the peel loop below walks ``enumerate(vcs)`` and never
    # touches a dict or the order again.
    vcs = list(map(snap_ids.__getitem__, order))
    lab_of = [0] * n  # snapshot id -> labeling id (level rank)
    for rank, vc in enumerate(vcs):
        lab_of[vc] = rank
    # Adjacency as per-vertex lists of pre-boxed ints: the tiny sweeps of
    # practical orders average ~1 edge per dequeue, so per-row overhead
    # (offset loads, index arithmetic, int re-boxing out of array('i'))
    # would rival the useful work.
    oo = snap.out_offsets
    ot = list(snap.out_targets)
    out_rows = [ot[oo[i]:oo[i + 1]] for i in range(n)]
    io_ = snap.in_offsets
    it = list(snap.in_targets)
    in_rows = [it[io_[i]:io_[i + 1]] for i in range(n)]
    # Fresh labeling => ids are exactly 0..n-1 (the order's level ranks).
    in_bufs: list[list] = [[] for _ in range(n)]
    out_bufs: list[list] = [[] for _ in range(n)]
    peeled = 2 * n + 1  # larger than any stamp (2 sweeps per vertex)
    state = [0] * n
    queue = [0] * n  # flat frontier; each id is enqueued at most once
    stamp = 0
    tracing = bool(sp)  # hoisted: sp's __bool__ costs a call per peel
    if tracing:
        # |E_k| of the residual graph G_k, maintained incrementally:
        # peeling v subtracts its edges to still-present vertices (its
        # edges to already-peeled ones were subtracted earlier).
        residual = snap.num_edges
        level = 0

    for vlab, vc in enumerate(vcs):  # highest level first
        if tracing:
            level += 1
            trace.event(
                "tol.build.level", k=level, v_k=n - level + 1, e_k=residual
            )
        for rows, my_labels, their_bufs in (
            # Forward: walk out-edges, v joins Lin(u); cover via Lout(v).
            (out_rows, out_bufs[vlab], in_bufs),
            # Backward mirror image.
            (in_rows, in_bufs[vlab], out_bufs),
        ):
            if not rows[vc]:  # nothing to sweep in this direction
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
                ml_lo = peeled  # sentinels: range test always fails,
                ml_hi = -1  # ml_disjoint is never evaluated
            while head < tail:
                for u in rows[queue[head]]:
                    if state[u] >= stamp:  # peeled or seen this sweep
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
                        if prune:
                            continue
                    else:
                        theirs.append(vlab)
                    queue[tail] = u
                    tail += 1
                head += 1
        state[vc] = peeled
        if tracing:
            for u in out_rows[vc]:
                if state[u] != peeled:
                    residual -= 1
            for u in in_rows[vc]:
                if state[u] != peeled:
                    residual -= 1

    for bufs, ids, holders in (
        (in_bufs, labeling.in_ids, labeling.in_holders),
        (out_bufs, labeling.out_ids, labeling.out_holders),
    ):
        for j in range(n):
            labels = bufs[j]
            ids[j] = array("i", labels)
            for x in labels:  # ascending j: each holder array comes sorted
                holders[x].append(j)

