"""Dagger: GRAIL-style interval labeling maintained under updates [32].

Dagger is the paper's only competitor that runs on million-vertex dynamic
graphs.  It keeps GRAIL intervals over the SCC-condensed graph and repairs
them *conservatively* on every update:

* **vertex/edge insertion** — the new vertex gets a fresh post-order rank
  past the current maximum and a low equal to the minimum low among its
  out-neighbors; then the *entire ancestor region* is re-labeled
  children-first with fresh ranks (Dagger's bounded subtree relabeling):
  each ancestor's post moves past the new maximum and its low is recomputed
  from its out-neighbors.  This keeps the GRAIL invariant
  (``u -> v ⇒ I(v) ⊆ I(u)``) and prices insertions the way the published
  system does — proportional to the affected region, which is a short
  root path on trees but most of the graph on hub-heavy DAGs (exactly the
  tree-vs-rest insertion shape of the paper's Figure 2).
* **deletion** — intervals are left untouched: removing reachability can
  only make containment over-approximate, never unsound.  Deletions are
  therefore near-free (Figure 4) at the price of interval decay.

The consequence, reproduced faithfully here, is Dagger's experimental
signature in the paper: updates are cheap (Figures 2 and 4) but interval
quality decays, so query processing degenerates toward a plain DFS
(Figures 3 and 7 show it up to 900x slower than even the BFS baseline on
wiki/Twitter).  On trees the intervals stay tight — each vertex has one
parent, so widening is rare — which is why Dagger wins insertions on the
uniprot datasets (Figure 2); our tree stand-ins show the same effect.

Cyclic inputs are handled through the shared
:class:`~repro.graph.condensation.DynamicCondensation` substrate (Dagger's
own contribution includes SCC maintenance; we reuse ours): each
condensation delta is written onto the condensed DAG with
:meth:`~repro.graph.condensation.DynamicCondensation.apply_to_dag`, then
the interval state is replayed over it.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Hashable, Iterable

from ..graph.condensation import CondensationDelta, DynamicCondensation
from ..graph.digraph import DiGraph

__all__ = ["DaggerIndex"]

Vertex = Hashable


class DaggerIndex:
    """Dynamic GRAIL-style reachability index (cycles allowed).

    Examples
    --------
    >>> idx = DaggerIndex(DiGraph(edges=[(1, 2), (2, 3)]))
    >>> idx.query(1, 3)
    True
    >>> idx.insert_vertex(4, in_neighbors=[3])
    >>> idx.query(1, 4)
    True
    >>> idx.delete_vertex(2)
    >>> idx.query(1, 4)
    False
    """

    name = "Dagger"

    def __init__(
        self, graph: DiGraph, *, num_traversals: int = 2, seed: int = 0
    ) -> None:
        self._cond = DynamicCondensation(graph.copy())
        self.num_traversals = num_traversals
        self._rng = random.Random(seed)
        self._lows: dict[int, list[int]] = {}
        self._posts: dict[int, list[int]] = {}
        self._max_rank = 0
        self._relabel_all()

    # ------------------------------------------------------------------
    # Interval construction / repair
    # ------------------------------------------------------------------

    def _relabel_all(self) -> None:
        """Full GRAIL labeling of the current condensation (build time)."""
        dag = self._cond.dag
        self._lows = {c: [0] * self.num_traversals for c in dag.vertices()}
        self._posts = {c: [0] * self.num_traversals for c in dag.vertices()}
        self._max_rank = dag.num_vertices
        for r in range(self.num_traversals):
            self._label_one_traversal(r)

    def _label_one_traversal(self, r: int) -> None:
        dag = self._cond.dag
        rng = self._rng
        roots = [c for c in dag.vertices() if dag.in_degree(c) == 0]
        rng.shuffle(roots)
        visited: set[int] = set()
        counter = 0
        for root in roots:
            if root in visited:
                continue
            children = list(dag.iter_out(root))
            rng.shuffle(children)
            stack: list[tuple[int, list[int]]] = [(root, children)]
            visited.add(root)
            while stack:
                v, pending = stack[-1]
                descended = False
                while pending:
                    w = pending.pop()
                    if w not in visited:
                        visited.add(w)
                        grandchildren = list(dag.iter_out(w))
                        rng.shuffle(grandchildren)
                        stack.append((w, grandchildren))
                        descended = True
                        break
                if descended:
                    continue
                stack.pop()
                counter += 1
                low = counter
                for w in dag.iter_out(v):
                    if self._lows[w][r] < low:
                        low = self._lows[w][r]
                self._lows[v][r] = low
                self._posts[v][r] = counter

    def _assign_fresh(self, comp: int) -> None:
        """Give a new component a conservative interval and widen ancestors."""
        dag = self._cond.dag
        self._max_rank += 1
        post = self._max_rank
        lows = [post] * self.num_traversals
        self._min_out_lows(comp, lows)
        self._lows[comp] = lows
        self._posts[comp] = [post] * self.num_traversals
        self._widen_ancestors(comp)

    def _min_out_lows(self, comp: int, lows: list[int]) -> None:
        dag = self._cond.dag
        for w in dag.iter_out(comp):
            wl = self._lows.get(w)
            if wl is None:
                continue  # fellow new component, assigned in a later step
            for r in range(self.num_traversals):
                if wl[r] < lows[r]:
                    lows[r] = wl[r]

    def _retighten_ancestors(self, comp: int) -> None:
        """Relabel every ancestor of *comp*, children-first.

        Each ancestor receives a fresh post rank beyond the current
        maximum (preserving relative order via a children-first sweep)
        and a low recomputed from its out-neighbors, so the whole region
        ends with intervals as tight as its descendants allow.  Cost is
        proportional to the ancestor region — the faithful price of
        Dagger's insertion maintenance.
        """
        dag = self._cond.dag
        region: set[int] = set()
        queue: deque[int] = deque([comp])
        while queue:
            c = queue.popleft()
            for u in dag.iter_in(c):
                if u not in region:
                    region.add(u)
                    queue.append(u)
        if not region:
            return
        # Children-first order within the region (local Kahn pass).
        pending = {
            u: sum(1 for w in dag.iter_out(u) if w in region) for u in region
        }
        ready: deque[int] = deque(u for u, d in pending.items() if d == 0)
        processed = 0
        while ready:
            u = ready.popleft()
            processed += 1
            self._max_rank += 1
            post = self._max_rank
            lows = [post] * self.num_traversals
            self._min_out_lows(u, lows)
            self._lows[u] = lows
            self._posts[u] = [post] * self.num_traversals
            for p in dag.iter_in(u):
                if p in pending:
                    pending[p] -= 1
                    if pending[p] == 0:
                        ready.append(p)
        assert processed == len(region), "ancestor region is not acyclic"

    def _widen_ancestors(self, comp: int) -> None:
        """Propagate interval widening so ancestors contain *comp* again."""
        dag = self._cond.dag
        queue: deque[int] = deque([comp])
        while queue:
            c = queue.popleft()
            cl, cp = self._lows[c], self._posts[c]
            for u in dag.iter_in(c):
                if u not in self._lows:
                    continue  # fellow new component, assigned later
                ul, up = self._lows[u], self._posts[u]
                changed = False
                for r in range(self.num_traversals):
                    if cl[r] < ul[r]:
                        ul[r] = cl[r]
                        changed = True
                    if cp[r] > up[r]:
                        up[r] = cp[r]
                        changed = True
                if changed:
                    queue.append(u)

    def _apply(self, delta: CondensationDelta, *, retighten: bool = False) -> None:
        self._cond.apply_to_dag(delta)
        for comp in delta.removed:
            # Conservative: dropping a component leaves ancestors' loose
            # intervals in place (sound, just less selective).
            self._lows.pop(comp, None)
            self._posts.pop(comp, None)
        for comp in reversed(delta.added):
            # delta.added is topological (sources first); assigning in
            # reverse gives every new component sight of its descendants'
            # finished intervals.
            self._assign_fresh(comp)
        if retighten:
            for comp in delta.added:
                self._retighten_ancestors(comp)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def insert_vertex(
        self,
        v: Vertex,
        in_neighbors: Iterable[Vertex] = (),
        out_neighbors: Iterable[Vertex] = (),
    ) -> None:
        """Insert a vertex with its edges; relabels the ancestor region."""
        self._apply(
            self._cond.insert_vertex(v, in_neighbors, out_neighbors),
            retighten=True,
        )

    def delete_vertex(self, v: Vertex) -> None:
        """Delete a vertex; intervals of survivors are left loose."""
        self._apply(self._cond.delete_vertex(v))

    def insert_edge(self, tail: Vertex, head: Vertex) -> None:
        """Insert an edge; relabels the tail's ancestor region."""
        delta = self._cond.insert_edge(tail, head)
        self._apply(delta, retighten=True)
        if delta.is_empty():
            c_tail = self._cond.component(tail)
            self._widen_from_edge(c_tail)
            self._retighten_ancestors(c_tail)

    def delete_edge(self, tail: Vertex, head: Vertex) -> None:
        """Delete an edge; intervals of survivors are left loose."""
        self._apply(self._cond.delete_edge(tail, head))

    def _widen_from_edge(self, c_tail: int) -> None:
        dag = self._cond.dag
        lows, posts = self._lows[c_tail], self._posts[c_tail]
        for w in dag.iter_out(c_tail):
            wl, wp = self._lows[w], self._posts[w]
            for r in range(self.num_traversals):
                if wl[r] < lows[r]:
                    lows[r] = wl[r]
                if wp[r] > posts[r]:
                    posts[r] = wp[r]
        self._widen_ancestors(c_tail)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _contains(self, cu: int, cv: int) -> bool:
        lu, pu = self._lows[cu], self._posts[cu]
        lv, pv = self._lows[cv], self._posts[cv]
        for r in range(self.num_traversals):
            if lv[r] < lu[r] or pv[r] > pu[r]:
                return False
        return True

    def query(self, s: Vertex, t: Vertex) -> bool:
        """Answer ``s -> t``: interval pruning plus fallback DFS."""
        cs = self._cond.component(s)
        ct = self._cond.component(t)
        if cs == ct:
            return True
        if not self._contains(cs, ct):
            return False
        dag = self._cond.dag
        stack = [cs]
        seen = {cs}
        while stack:
            c = stack.pop()
            for w in dag.iter_out(c):
                if w == ct:
                    return True
                if w in seen or not self._contains(w, ct):
                    continue
                seen.add(w)
                stack.append(w)
        return False

    def size_bytes(self) -> int:
        """Index size: two 4-byte ints per component per traversal."""
        return len(self._lows) * self.num_traversals * 8

    def __contains__(self, v: Vertex) -> bool:
        return v in self._cond.component_of
