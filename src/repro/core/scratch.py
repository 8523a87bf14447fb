"""Preallocated, generation-stamped scratch state for the update kernels.

The vertex insertion and deletion kernels (:mod:`repro.core.insertion`,
:mod:`repro.core.deletion`) are bounded by allocator traffic, not
arithmetic: written naively, every update builds a fresh
``set``/``deque``/``tuple`` cascade.  :class:`UpdateScratch` replaces all
of that with buffers that live as long as the labeling and are *reused*
across updates, so a steady-state update allocates (almost) nothing:

* **Mark arrays** (:attr:`seen`, :attr:`mark_a` … :attr:`mark_e`) are plain
  int lists indexed by dense vertex id.  Membership is a *generation
  stamp*: ``marks[i] == gen`` means "in the set of generation ``gen``".
  Clearing a set is ``gen = scratch.next_gen()`` — O(1), no writes — and
  distinct generations never collide, so one physical array serves many
  logical sets over time (and even two disjoint sets at once, under two
  different generation values).
* **Cursor buffers** (:attr:`queue`, :attr:`cand`, :attr:`buf_a`,
  :attr:`buf_b`, :attr:`mem_a`, :attr:`mem_b`, :attr:`topo`) are
  preallocated lists written through an explicit cursor (``buf[n] = x;
  n += 1``).  They are never truncated: in CPython ``list.clear()`` /
  ``del lst[:]`` *frees* the backing array, which would defeat reuse, so
  stale entries past the cursor are simply ignored.
* :attr:`counts` backs the local Kahn toposort in deletion.
* **Key cache** (:attr:`keys` guarded by :attr:`key_mark`): level-order
  tags (:meth:`LevelOrder.key <repro.core.order.LevelOrder.key>`) cached
  by labeling id for the duration of one deletion — tags are only
  invalidated by order *insertions* (a relabel), never by ``remove``, so
  one generation stamp makes the cache exact for a whole delete while the
  rebuild loop sorts thousands of candidates by level.

:meth:`begin` sizes every buffer to the labeling's current id capacity
and hands out a fresh generation; kernels take further generations per
sub-phase with :meth:`next_gen`.  Growth only happens when the id space
itself grows — after a warm-up update at a given size, the buffers are
stable objects of stable length (asserted by
``tests/core/test_update_differential.py``).

The scratch deliberately holds no vertex objects beyond the lifetime of
one update (object buffers may pin stale references past their cursors;
:meth:`begin` of the *next* update overwrites them, and nothing reads
past a cursor) and knows nothing about labelings — it attaches to one via
``TOLLabeling.update_scratch()``.
"""

from __future__ import annotations

__all__ = ["UpdateScratch"]

#: Extra slots appended beyond the requested capacity on growth, so a
#: slowly growing graph does not re-extend every buffer on every update.
_HEADROOM = 64


class UpdateScratch:
    """Reusable mark arrays and cursor buffers for one labeling's updates.

    Examples
    --------
    >>> s = UpdateScratch()
    >>> gen = s.begin(4)
    >>> s.mark_a[2] = gen          # put id 2 in this generation's set
    >>> s.mark_a[2] == gen
    True
    >>> s.mark_a[2] == s.next_gen()    # a new generation: empty again
    False
    """

    __slots__ = (
        "generation",
        "seen",
        "mark_a",
        "mark_b",
        "mark_c",
        "mark_d",
        "mark_e",
        "counts",
        "queue",
        "cand",
        "buf_a",
        "buf_b",
        "mem_a",
        "mem_b",
        "topo",
        "keys",
        "key_mark",
    )

    def __init__(self) -> None:
        self.generation = 0
        #: Visited/dedup stamps, keyed by labeling id.
        self.seen: list[int] = []
        #: General-purpose stamp arrays keyed by labeling id; insertion
        #: uses them for the Δk sweep's simulated sets, deletion for the
        #: B+(v)/B-(v) membership tests of the stale-witness guard.
        self.mark_a: list[int] = []
        self.mark_b: list[int] = []
        #: Deletion's change-propagation stamps (keyed by labeling id):
        #: which label sets changed, which ids sat in the victim's own
        #: label sets, and which holders lost a witness.
        self.mark_c: list[int] = []
        self.mark_d: list[int] = []
        self.mark_e: list[int] = []
        #: In-degree counters for the deletion toposort (Kahn).
        self.counts: list[int] = []
        #: BFS worklist (ids or vertex objects, per phase).
        self.queue: list = []
        #: Candidate accumulator for label (re)builds and sweeps.
        self.cand: list = []
        #: Short-lived copies of inverted lists (iterate-while-mutating
        #: safety) and doomed-label accumulators.
        self.buf_a: list = []
        self.buf_b: list = []
        #: Deletion frontier members (B+(v) / B-(v)), live for a whole op.
        self.mem_a: list = []
        self.mem_b: list = []
        #: Toposorted frontier, consumed by the rebuild loop.
        self.topo: list = []
        #: Per-op level-key cache: ``keys[i]`` is valid iff
        #: ``key_mark[i]`` carries the op's key generation.
        self.keys: list[int] = []
        self.key_mark: list[int] = []

    def begin(self, capacity: int) -> int:
        """Size every buffer for *capacity* ids; return a fresh generation.

        Called once at the top of an update with the labeling's interner
        capacity.  Buffers only ever grow; after a warm-up op at a given
        size this is a few ``len`` checks and one integer increment.
        """
        if len(self.seen) < capacity:
            grow = capacity + _HEADROOM - len(self.seen)
            pad = [0] * grow
            self.seen.extend(pad)
            self.mark_a.extend(pad)
            self.mark_b.extend(pad)
            self.mark_c.extend(pad)
            self.mark_d.extend(pad)
            self.mark_e.extend(pad)
            self.counts.extend(pad)
            self.queue.extend(pad)
            self.cand.extend(pad)
            self.buf_a.extend(pad)
            self.buf_b.extend(pad)
            self.mem_a.extend(pad)
            self.mem_b.extend(pad)
            self.topo.extend(pad)
            self.keys.extend(pad)
            self.key_mark.extend(pad)
        return self.next_gen()

    def next_gen(self) -> int:
        """Advance to a fresh generation (an O(1) "clear" of every set)."""
        g = self.generation + 1
        self.generation = g
        return g

    def stats(self) -> dict:
        """High-water marks for health introspection.

        Buffers only ever grow, so ``capacity`` (the current buffer
        length) *is* the high-water mark of the id space any update has
        needed; ``generation`` counts logical set clears across the
        scratch's lifetime (a proxy for update sub-phase volume).
        """
        return {
            "capacity": len(self.seen),
            "generation": self.generation,
        }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(capacity={len(self.seen)}, "
            f"generation={self.generation})"
        )
