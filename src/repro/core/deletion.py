"""Vertex deletion for TOL indices (Section 5.2, Algorithm 4).

Deleting vertex ``v`` can only invalidate labels that depended on paths
through ``v``: the in-labels of vertices ``v`` could reach (``B+(v)``) and
the out-labels of vertices that could reach ``v`` (``B-(v)``).  Algorithm 4
therefore:

1. strips ``v`` itself from every label set (via the inverted lists),
2. walks ``B+(v)`` in ascending topological order, rebuilding ``Lin(u)``
   — each rebuild merges the (already repaired) in-labels of ``u``'s
   surviving in-neighbors into a candidate set and re-filters it by the
   Level and Path constraints, pruning labels elsewhere that each
   accepted label makes redundant,
3. does the mirror-image walk over ``B-(v)`` for ``Lout(u)`` in
   descending topological order.

As printed, the algorithm rebuilds every label set of both frontiers,
although few of them change: on churn's update round over the 10k-vertex
RG5 stand-in, six deletes rebuilt 1579 label sets and changed 10.  Here
a set is rebuilt only when something it derives from may have changed
(the *cut-off* below), so a delete costs one walk over each frontier
plus rebuilds in proportion to the label sets it changes (63 in that
round).

The topological orders needed in steps 2–3 are computed locally on the
affected sets (a Kahn pass over each induced subgraph), so small deletions
stay cheap.

The rebuilds run on interned ids: candidate sets, cover checks and pruning
all operate on the sorted ``array('i')`` label buffers and inverted
lists, and the released id of ``v`` goes back to the interner's
free list for reuse by the next insertion.  The frontier sets, the Kahn
toposort, the cut-off's marks and the per-vertex rebuilds run on the
labeling's :class:`~repro.core.scratch.UpdateScratch` (generation-stamped
marks and cursor buffers) instead of allocating sets/deques/lists per op.
The kernel is pinned to the Definition-1 reference and to BFS by
``tests/core/test_update_differential.py``.

Stale-witness correction
------------------------
Algorithm 4 as printed has a subtle soundness gap: while rebuilding
``Lin(u)`` in step 2, the Path-Constraint check consults ``Lout(w)`` of
candidate labels ``w``, but for ``w ∈ B-(v)`` that set is repaired only in
step 3 and may still contain a *stale* witness ``x`` — one whose every
``w ⇝ x`` path ran through the deleted ``v``.  Trusting it makes the check
reject ``w`` even though nothing covers the pair anymore, leaving a
reachable pair without a witness.  We therefore re-verify a claimed witness
``x`` with a graph search whenever (and only when) ``w ∈ B-(v)`` and
``x ∈ B+(v)`` — the only combination that can be stale.  Step 3 needs no
such guard: it runs after step 2, so every ``Lin`` set it consults is
already repaired.  The guard is exercised directly by a regression test
(``tests/core/test_deletion.py``) that constructs the pathological graph.

Change-propagation cut-off
--------------------------
``L`` is the labeling before the delete, ``L'`` the Definition-1 labeling
of ``G - v``; ``I(a, b)`` is the set of vertices on some ``a ⇝ b`` path,
ends included.  Step 2 rebuilds ``Lin(u)``, ``u ∈ B+(v)``, iff

(a) ``u`` is an out-neighbour of ``v``, or the purge removed ``v`` from
    ``Lin(u)``;
(b) the ``Lin`` of an in-neighbour changed earlier in this delete; or
(c) ``Lin(u)`` holds a *lost witness* ``x`` — ``x ∈ Lout(v)`` and some
    ``w ∈ B-(v)`` with ``x ∈ Lout(w)`` no longer reaches ``x`` (a *lost
    holder*) — and a lost holder is a candidate of ``u``: an
    in-neighbour, or in an in-neighbour's ``Lin``.  Lost holders are
    found before step 2 by one reverse search per ``x ∈ Lout(v)``, which
    stops once it has reached every holder in ``B-(v)``.

Step 3 rebuilds ``Lout(u)``, ``u ∈ B-(v)``, iff

(a′) ``u`` is an in-neighbour of ``v``, or the purge removed ``v`` from
     ``Lout(u)``;
(b′) the ``Lout`` of an out-neighbour changed (by the purge or a step-3
     rebuild); or
(c′) ``Lout(u)`` meets the set of ``y ∈ Lin(v)`` that step 2 dropped from
     some ``Lin``.

Why a skipped set is exact.  Two facts about Definition 1: (i) ``a``
labels ``b`` iff ``a`` is the highest vertex of ``I(a, b)``; deleting
``v`` only shrinks intervals, so a label is lost only if it is ``v`` or
its path is.  (ii) ``w ∈ Lin(u)`` iff ``w`` is a candidate of ``u`` above
``u`` and no higher ``x ∈ Lout(w)`` is in ``Lin(u)`` (the top of
``I(w, u)`` is in both), so ``Lin(u)`` is fixed by ``u``'s in-neighbours,
their ``Lin`` sets and the candidates' ``Lout`` sets; mirrored for
``Lout``.

*Step 2*, by induction in topological order.  Let ``u`` fail (a)–(c).
Its in-neighbours and their (exact) ``Lin`` sets are unchanged, so its
candidates are too.  Compare the old and new admissions from the highest
candidate down, and take the first ``w`` decided differently; the part
``A`` of ``Lin(u)`` above ``w`` is still common.  ``w`` cannot be lost: a
witness ``x ∈ Lout'(w) ∩ A`` covered it before as well.  If ``w`` is
gained, some ``x ∈ Lout(w) ∩ A`` covered it, and ``w`` no longer reaches
``x`` (else the top of ``I'(w, u)`` would still cover it).  Every old
``w ⇝ x`` path ran through ``v``, so ``x``, the top of ``I(w, x) ∋ v``,
is in ``Lout(v)``: ``x`` is a lost witness in ``Lin(u)`` and ``w`` a lost
holder among its candidates, so (c) holds — a contradiction.

*Step 3* mirrors this in reverse topological order: a gain of ``w`` in a
``Lout(u)`` failing (a′)–(c′) needs ``x ∈ Lout(u) ∩ Lin(w)`` with ``x``
no longer reaching ``w``; then ``x ∈ Lin(v)`` and ``Lin(w)`` lost ``x``,
which only a step-2 rebuild does, so ``x`` is in the set of (c′).

*Extras.*  Step 2 checks the Path constraint against ``Lout`` sets that
step 3 has not repaired yet.  Beyond the stale witnesses the guard
catches, a ``Lout(w)`` may still lack a witness ``y`` it gains, and then
step 2 admits ``w`` into a ``Lin(t)`` where ``y`` covers it.  Such an
extra still reaches ``t`` from above, so as a witness it never rejects a
needed label; it only makes (b) and (c′) fire more often.  Since
``Lout(w)`` changes, step 3 rebuilds it, admits ``y`` and prunes ``w``
from every ``Lin`` that also holds ``y`` — ``Lin(t)`` included — so the
extras are gone when the delete returns.  Step 2's own prunes need no
rule: one that removes ``u`` from ``Lout(s)`` through ``w ∈ Lout(s)``
implies that ``s`` no longer reaches ``w`` (else ``u`` was never in
``Lout(s)``), so ``Lout(s)`` changes and the step-3 argument rebuilds
``s``; and they never remove the ``Lin(v)`` entries that (c′) reads.
``tests/core/test_deletion.py`` holds minimal graphs for (b), (b′), (c)
and (c′); each fails when its rule is removed.
"""

from __future__ import annotations

from collections.abc import Hashable

from ..errors import IndexStateError
from ..graph.digraph import DiGraph
from ..obs import trace
from ..graph.traversal import bidirectional_reachable
from .labeling import TOLLabeling, common_ids

__all__ = ["delete_vertex"]

Vertex = Hashable


def delete_vertex(graph: DiGraph, labeling: TOLLabeling, v: Vertex) -> None:
    """Delete *v* from the index (Algorithm 4).

    Only the label sets flagged by the change-propagation cut-off are
    rebuilt; its rules and the argument that every skipped set is
    already exact are in the module docstring, after the stale-witness
    correction.

    Parameters
    ----------
    graph:
        The DAG *still containing* ``v``; this function removes ``v`` from
        it as its final step, keeping graph and labeling in lockstep.
    labeling:
        The live TOL index; updated in place (order included).

    Raises
    ------
    IndexStateError
        If *v* is not indexed.
    """
    if v not in labeling:
        raise IndexStateError(f"vertex {v!r} is not indexed")
    with trace.span("tol.delete") as sp:
        if sp:
            sp.set("vertex", str(v))
            size_before = labeling.size()

        interner = labeling.interner
        ids = interner.ids
        scratch = labeling.update_scratch()
        scratch.begin(interner.capacity)
        mem_fwd = scratch.mem_a
        mem_bwd = scratch.mem_b
        mark_fwd = scratch.mark_a
        mark_bwd = scratch.mark_b

        # The affected sets must be taken while v is still present.  The
        # member marks (by labeling id) survive drop_vertex: survivors
        # keep their ids, and v's own id — though recycled onto the free
        # list — never appears in a surviving label set.
        g_fwd = scratch.next_gen()
        n_fwd = _frontier(
            graph.iter_out, ids, v, mark_fwd, g_fwd, mem_fwd, scratch.queue
        )
        g_bwd = scratch.next_gen()
        n_bwd = _frontier(
            graph.iter_in, ids, v, mark_bwd, g_bwd, mem_bwd, scratch.queue
        )

        # Cut-off state (module docstring), stamped before the purge.
        # mark_c: g_in / g_out = Lin / Lout differs from before this
        # delete; g_nbr = a neighbour of v (its neighbour set changes).
        # mark_d: g_lin_v = in Lin_old(v); buf_a keeps Lout_old(v).
        changed = scratch.mark_c
        vlab = scratch.mark_d
        lost = scratch.mark_e
        vid = ids[v]
        g_in = scratch.next_gen()
        g_out = scratch.next_gen()
        g_nbr = scratch.next_gen()
        g_lin_v = scratch.next_gen()
        for w in labeling.in_holders[vid]:
            changed[w] = g_in
        for w in labeling.out_holders[vid]:
            changed[w] = g_out
        for z in graph.iter_out(v):
            zid = ids[z]
            if changed[zid] != g_in:
                changed[zid] = g_nbr
        for z in graph.iter_in(v):
            zid = ids[z]
            if changed[zid] != g_out:
                changed[zid] = g_nbr
        for x in labeling.in_ids[vid]:
            vlab[x] = g_lin_v
        lout_v = scratch.buf_a
        n_lout_v = 0
        for x in labeling.out_ids[vid]:
            lout_v[n_lout_v] = x
            n_lout_v += 1

        graph.remove_vertex(v)
        labeling.drop_vertex(v)  # lines 1–4: purge v from all label sets
        labeling.order.remove(v)

        # Level-order tags are stable for the whole delete (only order
        # *insertions* can relabel; ``remove`` never does), so one key
        # generation makes scratch.keys an exact cache across every
        # rebuild below.
        g_key = scratch.next_gen()

        # Lost witnesses (rule (c)): x ∈ Lout_old(v) that some holder in
        # B-(v) no longer reaches.  Found before step 2, whose prunes
        # edit the Lout sets the holder lists come from.
        g_lost_w = scratch.next_gen()
        g_lost = scratch.next_gen()
        any_lost = False
        for i in range(n_lout_v):
            x = lout_v[i]
            if _mark_lost_holders(
                graph, labeling, x, mark_bwd, g_bwd, lost, g_lost, g_key,
                scratch,
            ):
                vlab[x] = g_lost_w
                any_lost = True

        topo = scratch.topo
        in_ids = labeling.in_ids
        out_ids = labeling.out_ids
        rebuilt_in = rebuilt_out = n_changed = 0
        g_drop = scratch.next_gen()
        m = _local_topological(
            graph, ids, mem_fwd, n_fwd, mark_fwd, g_fwd, True, scratch
        )
        for i in range(m):
            u = topo[i]
            uid = ids[u]
            c = changed[uid]
            if c != g_in and c != g_nbr:
                # (b): an in-neighbour's Lin changed.
                for z in graph.iter_in(u):
                    if changed[ids[z]] == g_in:
                        break
                else:
                    # (c): a lost witness in Lin(u), a lost holder
                    # among u's candidates.
                    if not (any_lost and _lost_witness_candidate(
                        graph, ids, in_ids, u, vlab, g_lost_w, lost,
                        g_lost,
                    )):
                        continue
            rebuilt_in += 1
            if _rebuild_labels(
                graph, labeling, u, True, g_bwd, g_fwd, g_key, g_lin_v,
                g_drop, scratch,
            ):
                changed[uid] = g_in
                n_changed += 1
        m = _local_topological(
            graph, ids, mem_bwd, n_bwd, mark_bwd, g_bwd, False, scratch
        )
        for i in range(m):
            u = topo[i]
            uid = ids[u]
            c = changed[uid]
            if c != g_out and c != g_nbr:
                # (b′): an out-neighbour's Lout changed.
                for z in graph.iter_out(u):
                    if changed[ids[z]] == g_out:
                        break
                else:
                    # (c′): Lout(u) holds an ancestor of v that step 2
                    # dropped from some Lin.
                    for x in out_ids[uid]:
                        if vlab[x] == g_drop:
                            break
                    else:
                        continue
            rebuilt_out += 1
            if _rebuild_labels(
                graph, labeling, u, False, 0, 0, g_key, 0, 0, scratch
            ):
                changed[uid] = g_out
                n_changed += 1

        if sp:
            # Repair-BFS frontier sizes (the survivor sets whose label
            # sets the cut-off examined), the rebuilds it let through and
            # how many of those changed a label set.
            sp.set("frontier_fwd", n_fwd)
            sp.set("frontier_bwd", n_bwd)
            sp.set("rebuilt_in", rebuilt_in)
            sp.set("rebuilt_out", rebuilt_out)
            sp.set("labels_changed", n_changed)
            sp.set("labels_removed", size_before - labeling.size())


def _frontier(
    neighbors, ids: dict, v: Vertex, mark: list, gen: int, members: list,
    queue: list,
) -> int:
    """BFS from *v* over the dict adjacency; stamp and collect survivors.

    Marks every reached vertex's labeling id with *gen* in *mark* (v's
    own id included, as the visited guard) and writes the reached
    vertices — excluding v — into *members*.  Returns the member count.
    """
    mark[ids[v]] = gen
    queue[0] = v
    head, tail = 0, 1
    n = 0
    while head < tail:
        x = queue[head]
        head += 1
        for u in neighbors(x):
            uid = ids[u]
            if mark[uid] == gen:
                continue
            mark[uid] = gen
            members[n] = u
            n += 1
            queue[tail] = u
            tail += 1
    return n


def _local_topological(
    graph: DiGraph,
    ids: dict,
    members: list,
    n: int,
    mark: list,
    gen: int,
    forward: bool,
    scratch,
) -> int:
    """Topologically sort the *n* members within their induced subgraph.

    ``forward=True`` yields ascending topological order (in-neighbors
    first); ``forward=False`` yields descending (out-neighbors first) —
    i.e. in both cases a vertex appears after the neighbors whose rebuilt
    labels its own rebuild consumes.

    Writes the order into ``scratch.topo`` and returns its length.
    Membership in the induced subgraph is ``mark[id] == gen``; pending
    in-degrees live in ``scratch.counts``, indexed by labeling id.
    """
    if n == 0:
        return 0
    upstream = graph.iter_in if forward else graph.iter_out
    downstream = graph.iter_out if forward else graph.iter_in
    counts = scratch.counts
    queue = scratch.queue
    topo = scratch.topo
    tail = 0
    for i in range(n):
        u = members[i]
        c = 0
        for z in upstream(u):
            if mark[ids[z]] == gen:
                c += 1
        counts[ids[u]] = c
        if c == 0:
            queue[tail] = u
            tail += 1
    head = 0
    m = 0
    while head < tail:
        u = queue[head]
        head += 1
        topo[m] = u
        m += 1
        for w in downstream(u):
            wid = ids[w]
            if mark[wid] == gen:
                c = counts[wid] - 1
                counts[wid] = c
                if c == 0:
                    queue[tail] = w
                    tail += 1
    if m != n:
        raise IndexStateError("affected region is not acyclic")
    return m


def _rebuild_labels(
    graph: DiGraph,
    labeling: TOLLabeling,
    u: Vertex,
    incoming: bool,
    g_holders: int,
    g_witnesses: int,
    g_key: int,
    g_kept: int,
    g_drop: int,
    scratch,
) -> bool:
    """Rebuild ``Lin(u)`` (incoming) or ``Lout(u)`` from neighbor labels.

    Algorithm 4, lines 7–17 (and their mirrored repetition): the candidate
    set is the union of each surviving neighbor ``z``'s rebuilt label set
    plus ``z`` itself (Section 5.2 proves this is a superset of the true
    label set); candidates are re-admitted from the highest level down
    under the Level and Path constraints.  Each admitted label ``w`` then
    invalidates ``u`` as a label of any vertex that holds ``w`` on the
    other side (the path now runs through the higher-level ``w``).

    Returns whether the label set changed.  An unchanged set is left in
    place; a changed one is cleared and refilled, and each dropped id
    stamped *g_kept* in ``scratch.mark_d`` is restamped *g_drop* (step
    2's record of the ancestors of ``v`` it dropped; ``0`` disables it).

    *g_holders* / *g_witnesses* are the generation stamps marking
    ``B-(v)`` (in ``scratch.mark_b``) and ``B+(v)`` (``scratch.mark_a``)
    for the stale-witness correction (module docstring): a coverage claim
    ``x ∈ cover(w)`` with ``w ∈ B-(v)`` and ``x ∈ B+(v)`` is confirmed
    with a bidirectional search before being trusted.  ``0`` disables the
    guard (the second, outgoing pass — every ``Lin`` it consults is
    already rebuilt).

    Level tags come from the per-delete key cache (*g_key*), candidates
    are sorted as pre-decorated ``(tag, id)`` pairs (no per-element key
    callback), and the rebuilt label set is tracked as generation marks
    during admission and bulk-filled once at the end (no per-label
    ``bisect.insort``).
    """
    interner = labeling.interner
    ids = interner.ids
    table = interner.table
    uid = ids[u]
    okey = labeling.order.key
    keys = scratch.keys
    key_mark = scratch.key_mark
    if key_mark[uid] == g_key:
        ukey = keys[uid]
    else:
        ukey = keys[uid] = okey(u)
        key_mark[uid] = g_key
    if incoming:
        neighbors = graph.iter_in(u)
        their_labels = labeling.in_ids
        cover_labels = labeling.out_ids
        inv_other = labeling.out_holders
        clear = labeling.clear_in_ids
        fill = labeling.fill_in_ids
        remove_opposite = labeling.remove_out_id
    else:
        neighbors = graph.iter_out(u)
        their_labels = labeling.out_ids
        cover_labels = labeling.in_ids
        inv_other = labeling.in_holders
        clear = labeling.clear_out_ids
        fill = labeling.fill_out_ids
        remove_opposite = labeling.remove_in_id

    # Candidate collection with stamped dedup, fused with the Level
    # Constraint prefilter and the key fetch: survivors land in *deco*
    # already decorated for a C-speed tuple sort.
    gen = scratch.next_gen()
    seen = scratch.seen
    deco = []
    for z in neighbors:
        zid = ids[z]
        if seen[zid] != gen:
            seen[zid] = gen
            if key_mark[zid] == g_key:
                k = keys[zid]
            else:
                k = keys[zid] = okey(z)
                key_mark[zid] = g_key
            if k < ukey:
                deco.append((k, zid))
        for w in their_labels[zid]:
            if seen[w] != gen:
                seen[w] = gen
                if key_mark[w] == g_key:
                    k = keys[w]
                else:
                    k = keys[w] = okey(table[w])
                    key_mark[w] = g_key
                if k < ukey:
                    deco.append((k, w))
    deco.sort()

    # Re-admit from the highest level down.  Membership of the growing
    # label set is a generation mark (g_own); the sorted array is built
    # once from the admitted buffer after the loop.  The set being
    # rebuilt is not read here, so it stays in place until the end.
    g_own = scratch.next_gen()
    admitted = scratch.cand
    a = 0
    holder_mark = scratch.mark_b
    witness_mark = scratch.mark_a
    doomed = scratch.buf_b
    holders_u = inv_other[uid]
    for _, w in deco:
        if g_holders != 0 and holder_mark[w] == g_holders:
            covered = _covered_suspect(
                graph, table, cover_labels[w], seen, g_own, w, incoming,
                witness_mark, g_witnesses,
            )
        else:
            covered = False
            for x in cover_labels[w]:
                if seen[x] == g_own:
                    covered = True
                    break
        if covered:
            continue  # Path Constraint: covered by a higher label
        seen[w] = g_own
        admitted[a] = w
        a += 1
        # Prune: any s holding w on the opposite side connects to u
        # through w, so u may no longer label s.  The affected s are
        # exactly inv_other[w] ∩ inv_other[u], collected before the
        # removals shrink holders_u.
        if holders_u:
            for j in range(common_ids(holders_u, inv_other[w], doomed)):
                remove_opposite(doomed[j], uid)

    old = their_labels[uid]
    if a == len(old):
        for x in old:
            if seen[x] != g_own:
                break
        else:
            return False
    if g_kept:
        vlab = scratch.mark_d
        for x in old:
            if seen[x] != g_own and vlab[x] == g_kept:
                vlab[x] = g_drop
    clear(uid)
    fill(uid, sorted(admitted[:a]))
    return True


def _mark_lost_holders(
    graph: DiGraph,
    labeling: TOLLabeling,
    x: int,
    in_bwd: list,
    g_bwd: int,
    lost: list,
    g_lost: int,
    g_key: int,
    scratch,
) -> bool:
    """Stamp the holders of ``x ∈ Lout(w)`` in ``B-(v)`` that lost *x*.

    A reverse search from *x* over the graph without ``v`` that stops
    once every holder ``w ∈ B-(v)`` is reached.  Holders never reached
    are stamped *g_lost* in *lost*; returns whether there were any.  The
    search skips vertices above *x*: *x* is the highest vertex on every
    path from a holder to it (Definition 1), so none of those paths
    needs them.
    """
    holders = labeling.out_holders[x]
    seen = scratch.seen
    g_target = scratch.next_gen()
    pending = 0
    for w in holders:
        if in_bwd[w] == g_bwd:
            seen[w] = g_target
            pending += 1
    if pending == 0:
        return False
    ids = labeling.interner.ids
    table = labeling.interner.table
    okey = labeling.order.key
    keys = scratch.keys
    key_mark = scratch.key_mark
    if key_mark[x] == g_key:
        xkey = keys[x]
    else:
        xkey = keys[x] = okey(table[x])
        key_mark[x] = g_key
    g_vis = scratch.next_gen()
    queue = scratch.queue
    seen[x] = g_vis
    queue[0] = x
    head, tail = 0, 1
    while head < tail and pending:
        y = queue[head]
        head += 1
        for z in graph.iter_in(table[y]):
            zid = ids[z]
            mark = seen[zid]
            if mark == g_vis:
                continue
            if key_mark[zid] == g_key:
                k = keys[zid]
            else:
                k = keys[zid] = okey(z)
                key_mark[zid] = g_key
            if k < xkey:
                continue
            if mark == g_target:
                pending -= 1
            seen[zid] = g_vis
            queue[tail] = zid
            tail += 1
    if pending == 0:
        return False
    for w in holders:
        if seen[w] == g_target:
            lost[w] = g_lost
    return True


def _lost_witness_candidate(
    graph: DiGraph,
    ids: dict,
    in_ids: list,
    u: Vertex,
    vlab: list,
    g_lost_w: int,
    lost: list,
    g_lost: int,
) -> bool:
    """Rule (c): does ``Lin(u)`` hold a lost witness while a lost holder
    is a candidate of ``u`` (an in-neighbour, or in an in-neighbour's
    ``Lin``)?"""
    for x in in_ids[ids[u]]:
        if vlab[x] == g_lost_w:
            break
    else:
        return False
    for z in graph.iter_in(u):
        zid = ids[z]
        if lost[zid] == g_lost:
            return True
        for w in in_ids[zid]:
            if lost[w] == g_lost:
                return True
    return False


def _covered_suspect(
    graph: DiGraph,
    table: list,
    cover,
    seen: list,
    g_own: int,
    w: int,
    incoming: bool,
    witness_mark: list,
    g_witnesses: int,
) -> bool:
    """Does some admitted label witness coverage of a suspect *w*?

    Like the plain cover check, but a witness ``x ∈ B+(v)`` may predate
    the deletion, so the ``w -> x`` (resp. ``x -> w``) leg is confirmed
    with a graph search before it is trusted.  Membership of the label
    set being rebuilt is ``seen[x] == g_own`` (the admission marks of
    :func:`_rebuild_labels`).
    """
    for x in cover:
        if seen[x] != g_own:
            continue
        if witness_mark[x] == g_witnesses:
            src, dst = (w, x) if incoming else (x, w)
            if not bidirectional_reachable(graph, table[src], table[dst]):
                continue
        return True
    return False
