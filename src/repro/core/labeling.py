"""The Total Order Labeling state: label buffers, inverted indices, queries.

:class:`TOLLabeling` holds, for every vertex ``v`` of a DAG:

* the in-label set ``Lin(v)`` and out-label set ``Lout(v)`` of Definition 1,
* the inverted lists ``Iin(u) = {w : u in Lin(w)}`` and
  ``Iout(u) = {w : u in Lout(w)}`` (Equations 3–4), kept in sync with every
  label mutation — the update algorithms of Section 5 rely on them to find
  all label sets affected by a vertex in time proportional to their number,

plus the :class:`~repro.core.order.LevelOrder` that parameterizes the index.

Storage layout
--------------
Vertices are interned to dense integer ids by a
:class:`~repro.core.intern.VertexInterner` (ids are stable for a vertex's
lifetime and recycled on deletion).  Each label set is a sorted
``array('i')`` of ids, indexed by the owner's id in the parallel lists
:attr:`in_ids` / :attr:`out_ids`; the inverted lists are the same
container — sorted, duplicate-free ``array('i')``s in :attr:`in_holders`
/ :attr:`out_holders` (the paper's ``backlabels``).  The algorithms of
Section 5 intersect and mutate the flat int buffers directly — the same
shape the paper's C++ implementation and
:class:`~repro.core.frozen.FrozenTOLIndex` use, but kept **live under
updates**: insertion into a small sorted array is a C ``memmove``, and
the update algorithms mutate the buffers in place through the id-level
API (:meth:`add_in_id` et al.), so aliases held across mutations stay
valid.

Queries read the same arrays through one Equation-1 kernel,
:func:`witness_id`, which :meth:`query_many` (:meth:`query` is a
one-pair batch) and :meth:`witness` call per pair, and which
:class:`~repro.core.frozen.FrozenTOLIndex` calls over slices of its
packed buffers.  No query-side copy of the labels is kept, so the arrays
are the whole resident label store.

The public API still speaks user vertex objects at the boundary
(:meth:`add_in_label`, :meth:`query`, ...); the dict-like views
:attr:`label_in` / :attr:`label_out` / :attr:`inv_in` / :attr:`inv_out`
materialize plain ``set`` snapshots for tests and diagnostics.

Queries are answered with the witness set of Equation 1:

    ``W(s, t) = (Lout(s) ∪ {s}) ∩ (Lin(t) ∪ {t})``

returning ``True`` iff it is non-empty (Lemma 1).

This class is deliberately *just* the data structure: construction
(:mod:`repro.core.butterfly`), insertion (:mod:`repro.core.insertion`),
deletion (:mod:`repro.core.deletion`) and reduction
(:mod:`repro.core.reduction`) are separate modules operating on it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from collections.abc import Hashable, Iterable, Iterator
from typing import Optional

from ..errors import IndexStateError, UnknownVertexError
from .intern import VertexInterner
from .order import LevelOrder

__all__ = ["TOLLabeling", "ids_intersect", "witness_id", "common_ids"]

Vertex = Hashable

#: Bytes one label entry occupies: the itemsize of the ``array('i')``
#: buffers (a 32-bit vertex id), matching the paper's C++ implementation;
#: used to report index sizes in bytes as Figure 5 does.
BYTES_PER_LABEL = array("i").itemsize

#: Size ratio beyond which an intersection galloping-probes the larger
#: side with binary search instead of scanning it linearly.
_GALLOP_SKEW = 16


def ids_intersect(a, b) -> bool:
    """``True`` iff the two sorted int sequences share an element.

    The workhorse of every cover check: tiered into an emptiness bail-out,
    a range-disjointness bail-out, a C membership scan for small sides, a
    galloping binary-search probe for skewed sizes, and a two-pointer merge
    otherwise.
    """
    la = len(a)
    lb = len(b)
    if not la or not lb:
        return False
    if la > lb:
        a, b = b, a
        la, lb = lb, la
    if a[-1] < b[0] or b[-1] < a[0]:
        return False
    if lb <= 32:
        for x in a:  # array.__contains__ is a C scan over the raw buffer
            if x in b:
                return True
        return False
    if la * _GALLOP_SKEW <= lb:
        for x in a:
            j = bisect_left(b, x)
            if j < lb and b[j] == x:
                return True
        return False
    i = j = 0
    x = a[0]
    y = b[0]
    while True:
        if x < y:
            i += 1
            if i == la:
                return False
            x = a[i]
        elif x > y:
            j += 1
            if j == lb:
                return False
            y = b[j]
        else:
            return True


def witness_id(a, b, sid: int, tid: int) -> int:
    """Equation 1 over two sorted id sequences: a witness id, or ``-1``.

    ``a = Lout(s)`` and ``b = Lin(t)`` are sorted, duplicate-free int
    sequences (live ``array('i')`` buffers or slices of a snapshot's
    buffers); *sid* and *tid* are the ids of ``s`` and ``t``.  Returns
    *sid* if ``s == t``, *tid* if ``t ∈ a``, *sid* if ``s ∈ b``, otherwise
    the smallest id of ``a ∩ b``, and ``-1`` iff ``W(s, t)`` is empty.

    Each endpoint is looked up by ``bisect_left``, skipped when it lies
    outside its side's range.  Unless the two ranges are disjoint, every
    id of the shorter side is then probed into the longer one by
    ``bisect_left``, each probe starting where the last one stopped.
    ``in`` is never used: it boxes every element it passes, and even over
    the shorter side it measured slower than a bisect, on arrays and on
    ``memoryview`` slices alike.
    """
    if sid == tid:
        return sid
    la = len(a)
    lb = len(b)
    if la and a[0] <= tid <= a[-1] and a[bisect_left(a, tid)] == tid:
        return tid
    if lb and b[0] <= sid <= b[-1] and b[bisect_left(b, sid)] == sid:
        return sid
    if la < lb:
        # Equation 1 is symmetric in the two sides: make a the longer.
        a, b, la, lb = b, a, lb, la
    if not lb or b[0] > a[-1] or a[0] > b[-1]:
        return -1
    j = 0
    for x in b:
        j = bisect_left(a, x, j)
        if j == la:
            return -1
        if a[j] == x:
            return x
    return -1


def common_ids(a, b, out) -> int:
    """Write the ids two sorted int arrays share into *out*; return how
    many.

    The ids land in ``out[0:n]`` ascending.  Walks the shorter array and
    probes each id into the longer one with ``bisect_left``, each probe
    starting where the last one stopped; ``in`` is never used, as it
    scans an array linearly.
    """
    lb = len(b)
    if len(a) > lb:
        a, b = b, a
        lb = len(b)
    n = j = 0
    for x in a:
        j = bisect_left(b, x, j)
        if j == lb:
            return n
        if b[j] == x:
            out[n] = x
            n += 1
            j += 1
    return n


class _SideView:
    """Read-only dict-like view of one label/inverted side.

    Keys are user vertex objects; values are freshly-built ``set`` objects
    of user vertices.  Mutating a returned set does **not** write through —
    use the labeling's mutation API.
    """

    __slots__ = ("_labeling", "_buffers")

    def __init__(self, labeling: "TOLLabeling", buffers: list) -> None:
        self._labeling = labeling
        self._buffers = buffers

    def __getitem__(self, v: Vertex) -> set:
        lab = self._labeling
        table = lab.interner.table
        return {table[i] for i in self._buffers[lab.interner.ids[v]]}

    def __contains__(self, v: Vertex) -> bool:
        return v in self._labeling.interner.ids

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._labeling.interner.ids)

    def __len__(self) -> int:
        return len(self._labeling.interner.ids)

    def keys(self) -> Iterator[Vertex]:
        return iter(self._labeling.interner.ids)

    def values(self):
        lab = self._labeling
        table = lab.interner.table
        for i in lab.interner.ids.values():
            yield {table[u] for u in self._buffers[i]}

    def items(self):
        lab = self._labeling
        table = lab.interner.table
        for v, i in lab.interner.ids.items():
            yield v, {table[u] for u in self._buffers[i]}


class TOLLabeling:
    """Label buffers and inverted indices of a TOL index over a DAG.

    Parameters
    ----------
    order:
        The level order.  Every vertex registered in the labeling must be
        present in the order (and vice versa for labels to make sense).
    """

    __slots__ = (
        "order",
        "interner",
        "_vids",
        "in_ids",
        "out_ids",
        "in_holders",
        "out_holders",
        "label_in",
        "label_out",
        "inv_in",
        "inv_out",
        "scratch",
    )

    def __init__(
        self, order: LevelOrder, *, interner: Optional[VertexInterner] = None
    ) -> None:
        self.order = order
        self.interner = VertexInterner() if interner is None else interner
        # Direct reference to the interner's vertex -> id dict (the dict
        # object is stable), skipping a property call on the query path.
        self._vids = self.interner.ids
        #: ``in_ids[i]`` is ``Lin(vertex i)`` as a sorted ``array('i')``.
        self.in_ids: list[Optional[array]] = []
        self.out_ids: list[Optional[array]] = []
        #: ``in_holders[i]`` is ``Iin(i) = {w : i in Lin(w)}`` as a sorted
        #: ``array('i')`` of ids, like the label buffers.
        self.in_holders: list[Optional[array]] = []
        self.out_holders: list[Optional[array]] = []
        self.label_in = _SideView(self, self.in_ids)
        self.label_out = _SideView(self, self.out_ids)
        self.inv_in = _SideView(self, self.in_holders)
        self.inv_out = _SideView(self, self.out_holders)
        #: Lazily-created :class:`~repro.core.scratch.UpdateScratch` the
        #: flat update kernels reuse across ops (see update_scratch()).
        self.scratch = None
        if interner is None:
            # Bulk path: a fresh interner has no free ids, and a LevelOrder
            # holds distinct vertices, so the whole order interns densely in
            # one pass (ids == level ranks) — equivalent to, and much faster
            # than, per-vertex _register calls.
            count = self.interner.intern_dense(order)
            self.in_ids.extend([array("i") for _ in range(count)])
            self.out_ids.extend([array("i") for _ in range(count)])
            self.in_holders.extend([array("i") for _ in range(count)])
            self.out_holders.extend([array("i") for _ in range(count)])
        else:
            # Adoption path (persistence): the caller hands a pre-built
            # interner covering exactly the order's vertices, so a reload
            # keeps the original id assignment including free-list holes.
            if set(interner.ids) != set(order):
                raise IndexStateError(
                    "adopted interner does not cover the level order"
                )
            live = set(interner.ids.values())
            for i in range(interner.capacity):
                alive = i in live
                self.in_ids.append(array("i") if alive else None)
                self.out_ids.append(array("i") if alive else None)
                self.in_holders.append(array("i") if alive else None)
                self.out_holders.append(array("i") if alive else None)

    # ------------------------------------------------------------------
    # Vertex registry
    # ------------------------------------------------------------------

    def _register(self, v: Vertex) -> int:
        i = self.interner.intern(v)
        if i == len(self.in_ids):
            self.in_ids.append(array("i"))
            self.out_ids.append(array("i"))
            self.in_holders.append(array("i"))
            self.out_holders.append(array("i"))
        else:  # recycled id: the parallel slots already exist
            self.in_ids[i] = array("i")
            self.out_ids[i] = array("i")
            self.in_holders[i] = array("i")
            self.out_holders[i] = array("i")
        return i

    def add_vertex(self, v: Vertex) -> None:
        """Register *v* with empty label sets (order must already hold it)."""
        if v in self.interner:
            raise IndexStateError(f"vertex {v!r} already registered")
        if v not in self.order:
            raise IndexStateError(f"vertex {v!r} missing from the level order")
        self._register(v)

    def drop_vertex(self, v: Vertex) -> None:
        """Unregister *v*: strip it from every label set, then forget it.

        The caller removes *v* from the level order separately.  The id is
        released to the interner's free list for reuse.
        """
        i = self.interner.id_of(v)
        # Strip i from the label arrays holding it and from the holder
        # arrays of its own labels; its own slots are then dropped whole.
        for buffers, holders in (
            (self.in_ids, self.in_holders),
            (self.out_ids, self.out_holders),
        ):
            for w in holders[i]:
                a = buffers[w]
                del a[bisect_left(a, i)]
            for u in buffers[i]:
                h = holders[u]
                del h[bisect_left(h, i)]
        self.in_ids[i] = None
        self.out_ids[i] = None
        self.in_holders[i] = None
        self.out_holders[i] = None
        self.interner.release(v)

    def __contains__(self, v: Vertex) -> bool:
        return v in self.interner.ids

    def vertices(self) -> Iterable[Vertex]:
        """Iterate over all registered vertices."""
        return self.interner.ids.keys()

    @property
    def num_vertices(self) -> int:
        """Number of registered vertices."""
        return len(self.interner.ids)

    def id_of(self, v: Vertex) -> int:
        """Interned id of *v* (raises :class:`UnknownVertexError`)."""
        return self.interner.id_of(v)

    def vertex_of(self, i: int) -> Vertex:
        """Vertex owning interned id *i*."""
        return self.interner.vertex_of(i)

    def level_key(self, i: int) -> int:
        """Order sort key of the vertex with id *i* (smaller == higher)."""
        return self.order.key(self.interner.table[i])

    def update_scratch(self):
        """The labeling's reusable update-kernel scratch (created lazily).

        One :class:`~repro.core.scratch.UpdateScratch` per labeling, shared
        by every flat insertion/deletion; buffer identity is stable across
        ops, which is what makes steady-state updates allocation-free.
        """
        s = self.scratch
        if s is None:
            from .scratch import UpdateScratch

            s = self.scratch = UpdateScratch()
        return s

    def scratch_stats(self):
        """High-water marks of the update scratch, or ``None`` if unused.

        The health introspector (:mod:`repro.obs.health`) reads this to
        report how much buffer space the flat update kernels have
        claimed without forcing the scratch into existence on a
        read-only labeling.
        """
        return None if self.scratch is None else self.scratch.stats()

    # ------------------------------------------------------------------
    # Label mutation — id level (inverted lists stay in sync)
    #
    # A holder array gains and loses one id per label mutation, by
    # ``insort`` and by ``bisect_left`` + ``del``; the label and holder
    # arrays stay exact inverses, so the holder side needs no
    # membership check of its own.
    # ------------------------------------------------------------------

    def add_in_id(self, vid: int, uid: int) -> None:
        """Insert id *uid* into ``Lin(vid)`` (idempotent, like ``set.add``)."""
        a = self.in_ids[vid]
        pos = bisect_left(a, uid)
        if pos == len(a) or a[pos] != uid:
            a.insert(pos, uid)
            insort(self.in_holders[uid], vid)

    def add_out_id(self, vid: int, uid: int) -> None:
        """Insert id *uid* into ``Lout(vid)``."""
        a = self.out_ids[vid]
        pos = bisect_left(a, uid)
        if pos == len(a) or a[pos] != uid:
            a.insert(pos, uid)
            insort(self.out_holders[uid], vid)

    def remove_in_id(self, vid: int, uid: int) -> None:
        """Remove id *uid* from ``Lin(vid)`` (KeyError if absent)."""
        a = self.in_ids[vid]
        pos = bisect_left(a, uid)
        if pos == len(a) or a[pos] != uid:
            raise KeyError(uid)
        del a[pos]
        h = self.in_holders[uid]
        del h[bisect_left(h, vid)]

    def remove_out_id(self, vid: int, uid: int) -> None:
        """Remove id *uid* from ``Lout(vid)``."""
        a = self.out_ids[vid]
        pos = bisect_left(a, uid)
        if pos == len(a) or a[pos] != uid:
            raise KeyError(uid)
        del a[pos]
        h = self.out_holders[uid]
        del h[bisect_left(h, vid)]

    def discard_in_id(self, vid: int, uid: int) -> bool:
        """Remove *uid* from ``Lin(vid)`` if present; report whether it was."""
        a = self.in_ids[vid]
        pos = bisect_left(a, uid)
        if pos == len(a) or a[pos] != uid:
            return False
        del a[pos]
        h = self.in_holders[uid]
        del h[bisect_left(h, vid)]
        return True

    def discard_out_id(self, vid: int, uid: int) -> bool:
        """Remove *uid* from ``Lout(vid)`` if present; report whether it was."""
        a = self.out_ids[vid]
        pos = bisect_left(a, uid)
        if pos == len(a) or a[pos] != uid:
            return False
        del a[pos]
        h = self.out_holders[uid]
        del h[bisect_left(h, vid)]
        return True

    def clear_in_ids(self, vid: int) -> None:
        """Empty ``Lin(vid)`` in place (aliases stay valid)."""
        a = self.in_ids[vid]
        holders = self.in_holders
        for uid in a:
            h = holders[uid]
            del h[bisect_left(h, vid)]
        del a[:]

    def clear_out_ids(self, vid: int) -> None:
        """Empty ``Lout(vid)`` in place."""
        a = self.out_ids[vid]
        holders = self.out_holders
        for uid in a:
            h = holders[uid]
            del h[bisect_left(h, vid)]
        del a[:]

    def fill_in_ids(self, vid: int, uids) -> None:
        """Bulk-set ``Lin(vid)`` from *uids* (sorted ascending, distinct).

        The batch counterpart of repeated :meth:`add_in_id` for a label
        set that was just cleared: one C-speed ``extend`` instead of a
        ``bisect.insort`` per label.  ``Lin(vid)`` must currently be
        empty; the deletion rebuild kernel is the intended caller.
        """
        a = self.in_ids[vid]
        if a:
            raise IndexStateError(f"fill_in_ids: Lin({vid}) is not empty")
        a.extend(uids)
        holders = self.in_holders
        for uid in a:
            insort(holders[uid], vid)

    def fill_out_ids(self, vid: int, uids) -> None:
        """Bulk-set ``Lout(vid)`` (mirror of :meth:`fill_in_ids`)."""
        a = self.out_ids[vid]
        if a:
            raise IndexStateError(f"fill_out_ids: Lout({vid}) is not empty")
        a.extend(uids)
        holders = self.out_holders
        for uid in a:
            insort(holders[uid], vid)

    # ------------------------------------------------------------------
    # Label mutation — user-vertex boundary
    # ------------------------------------------------------------------

    def add_in_label(self, v: Vertex, u: Vertex) -> None:
        """Insert *u* into ``Lin(v)``."""
        ids = self.interner.ids
        self.add_in_id(ids[v], ids[u])

    def add_out_label(self, v: Vertex, u: Vertex) -> None:
        """Insert *u* into ``Lout(v)``."""
        ids = self.interner.ids
        self.add_out_id(ids[v], ids[u])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, s: Vertex, t: Vertex) -> bool:
        """Answer the reachability query ``s -> t`` (Equation 1 / Lemma 1)."""
        return self.query_many(((s, t),))[0]

    def query_many(
        self, pairs: Iterable[tuple[Vertex, Vertex]]
    ) -> list[bool]:
        """Answer a batch of queries, in input order, each by
        :func:`witness_id` over ``Lout(s)`` and ``Lin(t)``."""
        ids = self._vids
        out_ids = self.out_ids
        in_ids = self.in_ids
        answers: list[bool] = []
        append = answers.append
        for s, t in pairs:
            try:
                sid = ids[s]
                tid = ids[t]
            except KeyError as missing:
                raise UnknownVertexError(missing.args[0]) from None
            append(witness_id(out_ids[sid], in_ids[tid], sid, tid) >= 0)
        return answers

    def witness(self, s: Vertex, t: Vertex) -> Optional[Vertex]:
        """Return one element of ``W(s, t)``, or ``None`` if unreachable
        (which one: see :func:`witness_id`)."""
        ids = self._vids
        try:
            sid = ids[s]
            tid = ids[t]
        except KeyError as missing:
            raise UnknownVertexError(missing.args[0]) from None
        w = witness_id(self.out_ids[sid], self.in_ids[tid], sid, tid)
        return None if w < 0 else self.interner.table[w]

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    def size(self) -> int:
        """Total number of labels, ``|L| = Σ_v |Lin(v)| + |Lout(v)|``."""
        total = 0
        for i in self.interner.ids.values():
            total += len(self.in_ids[i]) + len(self.out_ids[i])
        return total

    def size_bytes(self, bytes_per_label: int = BYTES_PER_LABEL) -> int:
        """Label payload bytes: ``size() * bytes_per_label``.

        The default ``bytes_per_label`` is the itemsize of the live
        ``array('i')`` buffers (4 bytes — a 32-bit vertex id), so with no
        argument this is the *exact* number of label-payload bytes held by
        the index, and matches
        :meth:`repro.core.frozen.FrozenTOLIndex.size_bytes` for a frozen
        copy of the same index (Figure 5's accounting).  Container
        overhead (offsets, inverted lists, the interner) is excluded on
        both sides;
        :meth:`FrozenTOLIndex.buffer_bytes` reports the frozen total
        including offsets.
        """
        return self.size() * bytes_per_label

    def label_count(self, v: Vertex) -> int:
        """``|Lin(v)| + |Lout(v)|`` for one vertex."""
        i = self.interner.ids[v]
        return len(self.in_ids[i]) + len(self.out_ids[i])

    # ------------------------------------------------------------------
    # Copying and comparison
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[Vertex, tuple[frozenset, frozenset]]:
        """Return an immutable ``{v: (Lin(v), Lout(v))}`` view for tests."""
        table = self.interner.table
        return {
            v: (
                frozenset(table[u] for u in self.in_ids[i]),
                frozenset(table[u] for u in self.out_ids[i]),
            )
            for v, i in self.interner.ids.items()
        }

    def equals_labels(self, other: "TOLLabeling") -> bool:
        """Compare label sets only (ignores order object identity)."""
        return self.snapshot() == other.snapshot()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(vertices={self.num_vertices}, "
            f"labels={self.size()})"
        )

    def check_invariants(self) -> None:
        """Validate interning, sortedness, inverted-list and level
        consistency (tests).

        Every label and holder list must be a sorted, duplicate-free
        ``array('i')``, and the holder lists exactly the inverse of the
        label arrays.  Membership is probed with ``bisect_left``: a
        linear ``in`` over a long holder array would make the check
        quadratic.
        """
        self.interner.check_invariants()
        ids = self.interner.ids
        table = self.interner.table

        def sorted_ids(a) -> bool:
            return (
                type(a) is array and a.typecode == "i"
                and list(a) == sorted(set(a))
            )

        def has(a, x) -> bool:
            pos = bisect_left(a, x)
            return pos < len(a) and a[pos] == x

        for v in ids:
            assert v in self.order, f"vertex {v!r} missing from the order"
        for v, i in ids.items():
            for side, buffers, holders in (
                ("in", self.in_ids, self.in_holders),
                ("out", self.out_ids, self.out_holders),
            ):
                labels = buffers[i]
                held = holders[i]
                assert labels is not None and held is not None, v
                assert sorted_ids(labels), f"L{side}({v!r}) not sorted-unique"
                assert sorted_ids(held), f"I{side}({v!r}) not sorted-unique"
                for u in labels:
                    assert has(holders[u], i), (side, v, table[u])
                    assert self.order.higher(table[u], v), (
                        f"level constraint: {table[u]!r} in L{side}({v!r})"
                    )
                for w in held:
                    assert has(buffers[w], i), (side, v, table[w])
