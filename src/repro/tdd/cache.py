"""Instrumented operation caches for the TDD kernel.

Every memoised TDD operation (addition, contraction, inner product)
stores its results in an :class:`OperationCache`: a dictionary with
hit/miss/eviction counters, an optional size bound with FIFO eviction,
and a ``purge`` hook the manager's garbage collector uses to drop
entries that mention reclaimed nodes.

Cache keys embed raw ``id(node)`` values (interning makes object
identity the node identity), so a cache entry is only valid while every
node it references is still interned.  ``key_ids`` captures which ids a
given ``(key, value)`` pair depends on; :meth:`purge` keeps exactly the
entries whose ids are all still live.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Set


class OperationCache:
    """A memo table with statistics and optional bounded size.

    Parameters
    ----------
    name:
        Label used in stats dictionaries (``"add"``, ``"cont"``,
        ``"inner"``).
    max_size:
        When set, the table never holds more than this many entries;
        inserting into a full table evicts in insertion (FIFO) order.
        Correctness is unaffected — an evicted entry is simply
        recomputed on the next miss.
    key_ids:
        ``(key, value) -> iterable of node ids`` the entry references;
        required for :meth:`purge` to be usable.
    """

    __slots__ = ("name", "max_size", "hits", "misses", "evictions",
                 "_table", "_key_ids")

    def __init__(self, name: str, max_size: Optional[int] = None,
                 key_ids: Optional[Callable[[tuple, object],
                                            Iterable[int]]] = None) -> None:
        if max_size is not None and max_size <= 0:
            raise ValueError("max_size must be positive (or None)")
        self.name = name
        self.max_size = max_size
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._table: Dict[tuple, object] = {}
        self._key_ids = key_ids

    # ------------------------------------------------------------------
    def get(self, key: tuple):
        """Look up ``key``, counting the hit or miss."""
        value = self._table.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: tuple, value) -> None:
        """Insert an entry, evicting the oldest one when full."""
        table = self._table
        if (self.max_size is not None and key not in table
                and len(table) >= self.max_size):
            table.pop(next(iter(table)))
            self.evictions += 1
        table[key] = value

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, key: tuple) -> bool:
        return key in self._table

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the table (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        self._table.clear()

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def purge(self, live_ids: Set[int]) -> int:
        """Drop entries referencing node ids outside the set ``live_ids``.

        Called after a mark-and-sweep: a reclaimed node's id may be
        reused by a future allocation, so any entry mentioning a dead id
        must go.  Returns the number of entries dropped.
        """
        if self._key_ids is None:
            dropped = len(self._table)
            self._table.clear()
            return dropped
        key_ids = self._key_ids
        live = live_ids.issuperset
        keep = {key: value for key, value in self._table.items()
                if live(key_ids(key, value))}
        dropped = len(self._table) - len(keep)
        self._table = keep
        return dropped

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        return {
            "name": self.name,
            "size": len(self._table),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return (f"OperationCache({self.name!r}, size={len(self._table)}, "
                f"hits={self.hits}, misses={self.misses})")
