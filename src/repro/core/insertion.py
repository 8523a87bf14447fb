"""Vertex insertion for TOL indices (Section 5.1, Algorithms 1–3).

Inserting a vertex ``v`` into an indexed DAG has two concerns: *where* ``v``
goes in the level order (Step 1, Algorithm 3) and *materializing* the label
changes (Step 2, Algorithms 1–2).  This module implements both, with three
documented corrections to the printed pseudocode — each one was found by
property-testing against the Definition-1 reference construction and each
is validated the same way (``tests/core/test_insertion.py``):

1. **Label spreading** (printed Algorithm 1, lines 9–10).  The candidate
   sets only contain neighbors and the neighbors' labels, which all rank
   *higher* than the neighbors — so a lower-level vertex reachable from
   ``v`` only transitively (e.g. ``b`` in the chain ``v -> a -> b`` with
   ``v`` ranked highest) never receives ``v`` and the query ``v -> b``
   would break.  We instead spread ``v`` with a level-restricted pruned
   search (:func:`_spread_new_labels`), the primitive that makes
   Butterfly's Algorithm 5 exact: for ``x`` that can reach ``v``,
   ``v ∈ Lout(x)`` iff ``Lout(x) ∩ Lin(v) = ∅`` (take ``z`` = the
   highest-level vertex over all ``x ⇝ v`` paths: if ``z ≠ v`` it blocks
   and appears in both sets; if ``z = v`` nothing can block), so the cover
   check is exact and pruning below a covered vertex is safe.

2. **Pruning through v** (printed Algorithm 2 prunes only through ``v``'s
   own labels).  A pair ``a -> v -> b`` with ``v`` ranked above both makes
   any direct label between ``a`` and ``b`` redundant;
   :func:`_prune_through` is also run on ``v`` itself.

3. **The Δk sweep baseline** (printed Algorithm 3).  The sweep's ``-1``
   terms consult ``Lin(w)`` for vertices ``w`` holding ``v``; but several
   of those labels are only *created by the insertion itself* (Algorithm 2
   adds ``u ∈ L'in(v)`` into ``Lin(w)`` for ``w`` reachable via ``v``), so
   simulating against the pre-insertion index under-counts the benefit of
   high placements.  Additionally the ``+1`` terms admit ``w' ∈ Iout(u)``
   as soon as *any* blocker is crossed rather than the last one.  We
   therefore (a) materialize the bottom placement first — the cheap one:
   no existing vertex gains ``v`` as a label before the sweep runs — and
   run the sweep read-only against the live index
   (:func:`choose_level`), and (b) admit ``w'`` only once
   ``Lout(w') ∩ (remaining higher candidates) = ∅`` (``w'`` is re-examined
   at every later blocker crossing because each blocker holds ``w'`` in
   its inverted list).  If a strictly better position exists, ``v`` is
   relocated by *applying* the sweep's crossings to the live label sets
   (:func:`_relocate_upward`) — far cheaper than a delete/re-insert round
   trip.  The sweep's θ is exact and the relocated index matches the
   from-scratch construction: the property tests check both against
   brute-force reconstruction at every candidate position.

All label reads and writes go through the interned-id representation: the
sweep's Δk accounting, the cover checks, and the crossings operate on
sorted ``array('i')`` label buffers and inverted lists, mapping back
to user vertex objects only at the :class:`Placement` boundary.

Scratch
-------
Every step runs on the labeling's reusable
:class:`~repro.core.scratch.UpdateScratch`: generation-stamped mark
arrays replace per-op ``set`` objects, cursor buffers replace per-op
lists/deques/tuples, so a steady-state insert allocates almost nothing
(the remaining allocations are ``sorted()`` calls over label-sized
candidate lists, each feeding a level-ordered admission scan that needs
an actually-sorted sequence).  The kernels are pinned to the
Definition-1 reference and to BFS after every op of random update traces
by ``tests/core/test_update_differential.py``.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass
from typing import Optional, Union

from ..errors import IndexStateError
from ..graph.digraph import DiGraph
from ..obs import trace
from .labeling import TOLLabeling, ids_intersect

__all__ = ["Placement", "LevelChoice", "choose_level", "insert_vertex"]

Vertex = Hashable

#: Placement of a new vertex in the level order: either the literal string
#: ``"bottom"`` (the lowest level, ``l'(v) = |V| + 1``) or ``("above", u)``
#: — immediately above vertex ``u`` (``v`` takes ``u``'s old level).
Placement = Union[str, tuple[str, Vertex]]


@dataclass(frozen=True)
class LevelChoice:
    """Outcome of the Algorithm-3 sweep for a bottom-placed vertex.

    Attributes
    ----------
    placement:
        ``"bottom"`` (stay at the lowest level) or ``("above", u)``.
    theta:
        Exact index-size delta of this placement relative to the bottom
        placement (``θ_k``; 0 for the bottom, negative otherwise).
    candidates_scanned:
        How many candidate positions the sweep evaluated (observability:
        the sweep is sparse — one stop per label of ``v``, not per level).
    """

    placement: Placement
    theta: int
    candidates_scanned: int


def insert_vertex(
    graph: DiGraph,
    labeling: TOLLabeling,
    v: Vertex,
    *,
    placement: Optional[Placement] = None,
) -> None:
    """Insert vertex *v* into the index (Section 5.1).

    Parameters
    ----------
    graph:
        The updated DAG, *already containing* ``v`` and its edges (mirrors
        :func:`repro.core.deletion.delete_vertex`, which removes the vertex
        from the graph itself).
    labeling:
        The live TOL index; updated in place (order included).
    placement:
        Where ``v`` goes in the level order.  ``None`` (default) runs the
        Algorithm-3 sweep to find the size-minimizing position;
        ``"bottom"`` gives ``v`` the lowest level (the cheap choice
        discussed in Section 5.1.2); ``("above", u)`` places it explicitly.

    Raises
    ------
    IndexStateError
        If *v* is already indexed, missing from the graph, or a neighbor
        is not indexed.
    """
    if v in labeling:
        raise IndexStateError(f"vertex {v!r} is already indexed")
    if v not in graph:
        raise IndexStateError(f"vertex {v!r} is not in the graph")
    ins = list(graph.in_neighbors(v))
    outs = list(graph.out_neighbors(v))
    for u in ins:
        if u not in labeling:
            raise IndexStateError(f"neighbor {u!r} is not indexed")
    for u in outs:
        if u not in labeling:
            raise IndexStateError(f"neighbor {u!r} is not indexed")

    with trace.span("tol.insert") as sp:
        if sp:
            sp.set("vertex", str(v))
            sp.set("in_degree", len(ins))
            sp.set("out_degree", len(outs))
            size_before = labeling.size()

        if placement is not None:
            _materialize(graph, labeling, v, placement, ins, outs)
            if sp:
                sp.set("labels_added", labeling.size() - size_before)
                sp.set("placement", "explicit")
            return

        # Step 1 (Algorithm 3): bottom-place, sweep, relocate if profitable.
        _materialize(graph, labeling, v, "bottom", ins, outs)
        with trace.span("tol.insert.choose_level") as level_sp:
            choice = choose_level(labeling, v)
            if level_sp:
                level_sp.set("candidates_scanned", choice.candidates_scanned)
                level_sp.set("theta", choice.theta)
        if choice.placement != "bottom":
            _, anchor = choice.placement
            _relocate_upward(labeling, v, anchor)
        if sp:
            sp.set("labels_added", labeling.size() - size_before)
            sp.set("relocated", int(choice.placement != "bottom"))
            sp.set("theta", choice.theta)


def choose_level(labeling: TOLLabeling, v: Vertex) -> LevelChoice:
    """Algorithm-3 sweep: find the upward move of *v* that minimizes ``|L|``.

    *v* must already be indexed; the sweep simulates sliding it upward from
    its current position (for the insertion use case, the bottom) and
    returns the position with the smallest resulting index size.  Read-only.

    At each crossing of a candidate ``u`` (one of ``v``'s current labels,
    visited from the lowest level up):

    * ``u`` stops labeling ``v`` and ``v`` starts labeling ``u`` — a net
      zero (``v`` crossing ``u`` is never blocked, because ``u`` being a
      label of ``v`` means no higher vertex separates them);
    * each vertex currently holding both ``v`` and ``u`` on the same side
      drops ``u`` (now covered through ``v``) — one ``-1`` each;
    * each vertex holding ``u`` whose connection to ``v`` has no remaining
      higher blocker starts holding ``v`` — one ``+1`` each.

    Ties prefer the lowest position (least disruption, cheapest to apply).

    The simulation runs on stamped mark arrays.  One mark array holds
    both simulated label sets (``sim_in`` under one generation,
    ``sim_out`` under another — disjoint in a DAG, so the stamps never
    collide), a second holds both simulated inverted sets; the inverted
    sets' members are additionally kept in append-only cursor buffers
    because the ``-1`` accounting iterates them (they only ever grow
    during the sweep).
    """
    interner = labeling.interner
    vid = interner.ids[v]
    table = interner.table
    in_ids = labeling.in_ids
    out_ids = labeling.out_ids
    in_holders = labeling.in_holders
    out_holders = labeling.out_holders
    okey = labeling.order.key

    scratch = labeling.update_scratch()
    scratch.begin(interner.capacity)
    g_sim_in = scratch.next_gen()
    g_sim_out = scratch.next_gen()
    g_inv_in = scratch.next_gen()
    g_inv_out = scratch.next_gen()
    sim = scratch.mark_a
    invm = scratch.mark_b
    cand = scratch.cand
    n = 0
    for u in in_ids[vid]:
        sim[u] = g_sim_in
        cand[n] = u
        n += 1
    for u in out_ids[vid]:
        sim[u] = g_sim_out
        cand[n] = u
        n += 1
    deco = sorted(((okey(table[cand[i]]), cand[i]) for i in range(n)),
                  reverse=True)
    candidates = [u for _, u in deco]
    inv_in = scratch.buf_a
    n_iin = 0
    for w in in_holders[vid]:
        invm[w] = g_inv_in
        inv_in[n_iin] = w
        n_iin += 1
    inv_out = scratch.buf_b
    n_iout = 0
    for w in out_holders[vid]:
        invm[w] = g_inv_out
        inv_out[n_iout] = w
        n_iout += 1

    best_placement: Placement = "bottom"
    best_theta = 0
    theta = 0
    # The meets-marks probes are inlined (for/else) — they run once per
    # inverted-set neighbor and the call overhead dominated the scan.
    for u in candidates:
        delta = 0
        if sim[u] == g_sim_in:
            sim[u] = 0
            invm[u] = g_inv_out
            inv_out[n_iout] = u
            n_iout += 1
            for i in range(n_iin):
                w = inv_in[i]
                if u in in_ids[w]:
                    delta -= 1
            for w in out_holders[u]:
                if invm[w] != g_inv_out:
                    for y in out_ids[w]:
                        if sim[y] == g_sim_in:
                            break
                    else:
                        delta += 1
                        invm[w] = g_inv_out
                        inv_out[n_iout] = w
                        n_iout += 1
        else:
            sim[u] = 0
            invm[u] = g_inv_in
            inv_in[n_iin] = u
            n_iin += 1
            for i in range(n_iout):
                w = inv_out[i]
                if u in out_ids[w]:
                    delta -= 1
            for w in in_holders[u]:
                if invm[w] != g_inv_in:
                    for y in in_ids[w]:
                        if sim[y] == g_sim_out:
                            break
                    else:
                        delta += 1
                        invm[w] = g_inv_in
                        inv_in[n_iin] = w
                        n_iin += 1
        theta += delta
        if theta < best_theta:
            best_theta = theta
            best_placement = ("above", table[u])
    return LevelChoice(best_placement, best_theta, len(candidates))


def _relocate_upward(labeling: TOLLabeling, v: Vertex, anchor: Vertex) -> None:
    """Move *v* from its current level to just above *anchor*, in place.

    Applies the Algorithm-3 crossings for real instead of simulating them:
    at each candidate crossing the ``u``/``v`` label swap, the coverage
    removals and the inverted-list additions of :func:`choose_level` are
    executed against the live label sets.  This is far cheaper than the
    delete + re-insert round trip (which rebuilds the labels of everything
    ``v`` touches) and is validated against from-scratch reconstruction by
    the property tests.

    *anchor* must be one of ``v``'s current labels (which is what
    :func:`choose_level` returns): the crossings below it are exactly the
    sweep's prefix.  Inverted lists mutated while they are walked are
    first copied into a scratch cursor buffer.
    """
    order = labeling.order
    ids = labeling.interner.ids
    vid = ids[v]
    anchor_id = ids[anchor]
    in_ids = labeling.in_ids
    out_ids = labeling.out_ids
    in_holders = labeling.in_holders
    out_holders = labeling.out_holders
    add_in = labeling.add_in_id
    add_out = labeling.add_out_id
    remove_in = labeling.remove_in_id
    remove_out = labeling.remove_out_id
    intersect = ids_intersect
    own_in = in_ids[vid]  # live: shrinks as candidates are crossed
    own_out = out_ids[vid]

    scratch = labeling.update_scratch()
    scratch.begin(labeling.interner.capacity)
    okey = order.key
    table = labeling.interner.table
    deco = sorted(
        ((okey(table[u]), u) for a in (own_in, own_out) for u in a),
        reverse=True,
    )
    candidates = [u for _, u in deco]
    buf = scratch.buf_a
    crossed_anchor = False
    for u in candidates:
        if u in own_in:
            remove_in(vid, u)
            add_out(u, vid)
            m = 0
            for w in in_holders[vid]:
                buf[m] = w
                m += 1
            for i in range(m):
                w = buf[i]
                if u in in_ids[w]:
                    remove_in(w, u)
            m = 0
            for w in out_holders[u]:
                buf[m] = w
                m += 1
            for i in range(m):
                w = buf[i]
                if (
                    w != vid
                    and vid not in out_ids[w]
                    and not intersect(out_ids[w], own_in)
                ):
                    add_out(w, vid)
        else:
            remove_out(vid, u)
            add_in(u, vid)
            m = 0
            for w in out_holders[vid]:
                buf[m] = w
                m += 1
            for i in range(m):
                w = buf[i]
                if u in out_ids[w]:
                    remove_out(w, u)
            m = 0
            for w in in_holders[u]:
                buf[m] = w
                m += 1
            for i in range(m):
                w = buf[i]
                if (
                    w != vid
                    and vid not in in_ids[w]
                    and not intersect(in_ids[w], own_out)
                ):
                    add_in(w, vid)
        if u == anchor_id:
            crossed_anchor = True
            break
    if not crossed_anchor:
        raise IndexStateError(
            f"relocation anchor {anchor!r} is not a label of {v!r}"
        )
    order.remove(v)
    order.insert_before(v, anchor)


# ----------------------------------------------------------------------
# Step 2 — materialization at a fixed position
# ----------------------------------------------------------------------

def _materialize(
    graph: DiGraph,
    labeling: TOLLabeling,
    v: Vertex,
    placement: Placement,
    ins: list,
    outs: list,
) -> None:
    """Insert *v* at *placement* and repair all label sets."""
    order = labeling.order
    if placement == "bottom":
        order.insert_last(v)
    else:
        kind, anchor = placement
        if kind != "above":
            raise IndexStateError(f"unknown placement {placement!r}")
        order.insert_before(v, anchor)
    labeling.add_vertex(v)

    scratch = labeling.update_scratch()
    scratch.begin(labeling.interner.capacity)

    _build_own_labels(labeling, v, ins, outs, scratch)
    _spread_new_labels(graph, labeling, v, True, scratch)
    _spread_new_labels(graph, labeling, v, False, scratch)
    _prune_through(labeling, labeling.interner.ids[v], scratch)
    _repair_other_labels(labeling, v, scratch)


def _build_own_labels(
    labeling: TOLLabeling, v: Vertex, ins: list, outs: list, scratch
) -> None:
    """Refine the candidate sets into ``v``'s own label sets.

    Algorithm 1, lines 1–8: ``Cin(v)`` is the union of ``v``'s in-neighbors
    and their in-label sets (a proven superset of ``L'in(v)``); scanned
    from the highest level down, a candidate is kept when it is higher
    than ``v`` and no already-kept label covers it.  Mirrored for
    ``Cout(v)``.  Neighbor lists come from the caller, which sourced them
    from the live graph.  Candidates are deduplicated with a stamped mark
    array and collected in a cursor buffer.
    """
    ids = labeling.interner.ids
    table = labeling.interner.table
    okey = labeling.order.key
    vid = ids[v]
    vkey = okey(v)
    seen = scratch.seen
    cand = scratch.cand
    for incoming in (True, False):
        neighbors = ins if incoming else outs
        neighbor_labels = labeling.in_ids if incoming else labeling.out_ids
        covering = labeling.out_ids if incoming else labeling.in_ids
        add = labeling.add_in_id if incoming else labeling.add_out_id
        own = neighbor_labels[vid]  # live: grows as labels are admitted
        gen = scratch.next_gen()
        n = 0
        for u in neighbors:
            uid = ids[u]
            if seen[uid] != gen:
                seen[uid] = gen
                cand[n] = uid
                n += 1
            for w in neighbor_labels[uid]:
                if seen[w] != gen:
                    seen[w] = gen
                    cand[n] = w
                    n += 1
        # Level Constraint prefilter fused with key decoration, then a
        # tuple sort and an admission scan from the highest level down.
        # Lower-level candidates are handled by the spread.
        deco = []
        for i in range(n):
            u = cand[i]
            k = okey(table[u])
            if k < vkey:
                deco.append((k, u))
        deco.sort()
        for _, u in deco:
            if ids_intersect(covering[u], own):
                continue
            add(vid, u)


def _spread_new_labels(
    graph: DiGraph, labeling: TOLLabeling, v: Vertex, forward: bool, scratch
) -> None:
    """Enter ``v`` into the label sets of lower-level vertices.

    A pruned search from ``v`` restricted to lower-level vertices: with
    ``forward=True``, every visited ``u`` (reachable from ``v``) receives
    ``v`` in ``Lin(u)`` unless ``Lout(v) ∩ Lin(u) ≠ ∅`` — the exact
    Definition-1 condition (see module docstring) — in which case the
    branch is pruned (anything beyond ``u`` via this path is covered by
    the same witness).  The BFS runs on a stamped seen array and a flat
    scratch queue.
    """
    ids = labeling.interner.ids
    okey = labeling.order.key
    vkey = okey(v)
    vid = ids[v]
    if forward:
        neighbors = graph.iter_out
        my_labels = labeling.out_ids[vid]
        their_labels = labeling.in_ids
        add_label = labeling.add_in_id
    else:
        neighbors = graph.iter_in
        my_labels = labeling.in_ids[vid]
        their_labels = labeling.out_ids
        add_label = labeling.add_out_id

    gen = scratch.next_gen()
    seen = scratch.seen
    queue = scratch.queue
    seen[vid] = gen
    queue[0] = v
    head, tail = 0, 1
    intersect = ids_intersect
    while head < tail:
        x = queue[head]
        head += 1
        for u in neighbors(x):
            uid = ids[u]
            if seen[uid] == gen:
                continue
            seen[uid] = gen
            if okey(u) < vkey:
                continue  # higher level: never receives v
            if intersect(my_labels, their_labels[uid]):
                continue  # covered: prune this branch
            add_label(uid, vid)
            queue[tail] = u
            tail += 1


# ----------------------------------------------------------------------
# Algorithm 2 — repairing labels between existing vertices
# ----------------------------------------------------------------------

def _repair_other_labels(labeling: TOLLabeling, v: Vertex, scratch) -> None:
    """Propagate the new ``u -> v -> w`` connectivity and prune redundancy.

    Labels are pre-decorated with their level tags and tuple-sorted (one
    C-level sort, no per-element key callback); the decorated lists feed
    :func:`_repair_direction` so sink keys are computed once, not once
    per (source, sink) pair.
    """
    vid = labeling.interner.ids[v]
    okey = labeling.order.key
    table = labeling.interner.table
    own_in = sorted((okey(table[u]), u) for u in labeling.in_ids[vid])
    own_out = sorted((okey(table[u]), u) for u in labeling.out_ids[vid])
    _repair_direction(labeling, vid, own_in, own_out, True, scratch)
    _repair_direction(labeling, vid, own_out, own_in, False, scratch)


def _repair_direction(
    labeling: TOLLabeling,
    vid: int,
    sources: list,
    sinks: list,
    incoming: bool,
    scratch,
) -> None:
    """One orientation of Algorithm 2.

    With ``incoming=True``: ``sources = L'in(v)`` (they reach ``v``) and
    ``sinks = L'out(v)`` (reached from ``v``); each source ``u`` may become
    an in-label of each lower-level sink ``w`` (and of everything holding
    ``w`` as an in-label), and of ``v`` itself and everything holding
    ``v``.  ``incoming=False`` is the mirrored pass.

    *sources* and *sinks* arrive as sorted ``(level tag, id)`` tuples, so
    the Level Constraint compares cached ints instead of calling
    ``level_key`` per (source, sink) pair (the order does not mutate
    during a repair, so the tags stay valid throughout).
    """
    if incoming:
        their_labels = labeling.in_ids
        cover_labels = labeling.out_ids
        inv = labeling.in_holders
        add = labeling.add_in_id
    else:
        their_labels = labeling.out_ids
        cover_labels = labeling.in_ids
        inv = labeling.out_holders
        add = labeling.add_out_id

    intersect = ids_intersect
    for u_key, u in sources:  # ascending level value == highest first
        u_cover = cover_labels[u]
        # Iterating the holder array inv[w] live is safe: the only
        # mutation inside this loop is add(x, u), which inserts into
        # inv[u] alone — and a source u is never among the sinks (nor
        # v itself), since a DAG vertex's two label sets are disjoint.
        # An insort into the walked array would shift it under the
        # iterator.
        for w_key, w in sinks:
            if w_key < u_key:
                continue  # Level Constraint: only lower-level sinks
            their_w = their_labels[w]
            if u not in their_w and not intersect(u_cover, their_w):
                add(w, u)
            for x in inv[w]:
                their_x = their_labels[x]
                if u not in their_x and not intersect(u_cover, their_x):
                    add(x, u)
        their_v = their_labels[vid]
        if u not in their_v and not intersect(u_cover, their_v):
            add(vid, u)
        for x in inv[vid]:
            their_x = their_labels[x]
            if u not in their_x and not intersect(u_cover, their_x):
                add(x, u)
        _prune_through(labeling, u, scratch)


def _prune_through(labeling: TOLLabeling, uid: int, scratch) -> None:
    """Remove labels made redundant by pairs now connected through *uid*.

    For every ``a`` holding ``u`` as an out-label (``a -> u``) and every
    ``b`` holding ``u`` as an in-label (``u -> b``) the path ``a -> u -> b``
    passes through the higher-level ``u``, so neither endpoint may label
    the other (Path Constraint): drop ``b`` from ``Lout(a)`` and ``a`` from
    ``Lin(b)`` (Algorithm 2, lines 8–13).

    Each holder array is stamped into a generation-marked array once, so
    every label array is scanned exactly once with O(1) membership
    probes; the listcomp copies stay (C-speed bulk ops — Python-level
    cursor loops measured *slower*, the scratch contract's documented
    allocation compromise).
    """
    holders_out = labeling.out_holders[uid]  # a with u ∈ Lout(a)
    holders_in = labeling.in_holders[uid]  # b with u ∈ Lin(b)
    if not holders_out or not holders_in:
        return
    out_ids = labeling.out_ids
    in_ids = labeling.in_ids
    remove_out = labeling.remove_out_id
    discard_in = labeling.discard_in_id
    remove_in = labeling.remove_in_id
    discard_out = labeling.discard_out_id
    marks = scratch.seen
    g_in = scratch.next_gen()
    for b in holders_in:
        marks[b] = g_in
    for a in list(holders_out):
        doomed = [b for b in out_ids[a] if marks[b] == g_in]
        for b in doomed:
            remove_out(a, b)
            discard_in(b, a)
    g_out = scratch.next_gen()
    for a in holders_out:
        marks[a] = g_out
    for b in list(holders_in):
        doomed = [a for a in in_ids[b] if marks[a] == g_out]
        for a in doomed:
            remove_in(b, a)
            discard_out(a, b)
