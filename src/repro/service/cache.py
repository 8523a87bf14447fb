"""An epoch-invalidated, bounded LRU cache for query results.

Reachability answers are only valid for one version of the graph, and a
single vertex update can flip the answer of arbitrarily many ``(s, t)``
pairs — eager invalidation would mean scanning every cached pair on every
write.  Instead each entry is stamped with the index epoch it was computed
at (:class:`~repro.service.concurrency.EpochCounter`); a lookup presents
the *current* epoch, and an entry from any earlier epoch is treated as a
miss and dropped on contact.  A write therefore invalidates the entire
cache in O(1) — it just bumps the epoch — and stale entries are evicted
lazily, either on re-lookup or by ordinary LRU pressure.

The same trick appears in serving systems as "generational" or
"epoch-based" cache invalidation; it trades a small amount of dead weight
(stale entries occupying slots until touched) for constant-time writes,
which is the correct trade for the paper's update-heavy dynamic workloads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Hashable
from typing import Optional

__all__ = ["MISS", "EpochLRUCache"]

#: Sentinel returned by :meth:`EpochLRUCache.get` on a miss, so ``False``
#: (a perfectly good reachability answer) stays distinguishable.
MISS = object()

Key = Hashable


class EpochLRUCache:
    """A bounded LRU mapping ``key -> (epoch, value)`` (see module docs).

    Parameters
    ----------
    capacity:
        Maximum number of live entries.  ``0`` disables the cache
        entirely (every ``get`` misses, every ``put`` is a no-op), which
        gives benchmarks a true cache-off baseline without branching at
        the call sites.

    Thread safety: every public method takes the internal mutex, so the
    cache may be shared by any number of reader threads.  Hit/miss
    bookkeeping is kept inside, exposed via :meth:`stats`.

    Examples
    --------
    >>> cache = EpochLRUCache(capacity=2)
    >>> cache.put(("a", "b"), epoch=0, value=True)
    >>> cache.get(("a", "b"), epoch=0)
    True
    >>> cache.get(("a", "b"), epoch=1) is MISS   # a write happened
    True
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Key, tuple[int, object]]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._stale_drops = 0
        self._evictions = 0

    @property
    def capacity(self) -> int:
        """The configured maximum entry count."""
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def get(self, key: Key, epoch: int):
        """Return the cached value for *key* at *epoch*, or :data:`MISS`.

        An entry stamped with an epoch other than *epoch* is stale: it is
        removed and counted in ``stale_drops``, and the lookup misses.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return MISS
            cached_epoch, value = entry
            if cached_epoch != epoch:
                del self._entries[key]
                self._stale_drops += 1
                self._misses += 1
                return MISS
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Key, epoch: int, value: object) -> None:
        """Store *value* for *key* at *epoch*, evicting LRU entries."""
        if self._capacity == 0:
            return
        with self._lock:
            self._entries[key] = (epoch, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry (stats are preserved)."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def bind_registry(self, registry) -> None:
        """Publish this cache's live stats into a metric registry.

        Registers one callback per stat (``cache.hits``,
        ``cache.hit_rate``, ...) so a registry snapshot or Prometheus
        export reads the *current* values — no double bookkeeping, no
        sampling loop.  The callbacks hold a reference to the cache;
        binding a rebuilt cache just replaces them.
        """
        for stat in (
            "entries", "hits", "misses", "hit_rate", "stale_drops",
            "evictions",
        ):
            registry.register_callback(
                f"cache.{stat}",
                lambda stat=stat: self.stats()[stat],
            )

    @property
    def hit_rate(self) -> Optional[float]:
        """Hits / lookups, or ``None`` before the first lookup."""
        with self._lock:
            total = self._hits + self._misses
            return self._hits / total if total else None

    def stats(self) -> dict:
        """Capacity, size and hit/miss/eviction counters, as one dict."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "capacity": self._capacity,
                "entries": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": self._hits / total if total else None,
                "stale_drops": self._stale_drops,
                "evictions": self._evictions,
            }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"{type(self).__name__}(entries={s['entries']}/{s['capacity']}, "
            f"hits={s['hits']}, misses={s['misses']})"
        )
