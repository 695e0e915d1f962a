"""Memo tables of the TDD kernel.

Every memoised TDD operation (addition, contraction, inner product,
linear combination) keeps its results in an :class:`OperationCache`:
a plain dictionary ``table`` plus hit/miss counters.  The kernels in
:mod:`repro.tdd.apply` read and write ``table`` directly and add their
counts once per call, so a lookup costs one dictionary access.

Cache keys embed raw ``id(node)`` values (interning makes object
identity the node identity), so an entry is only valid while every
node it names is still interned.  The manager's garbage collector
therefore empties every table (:meth:`~repro.tdd.manager.TDDManager.collect`):
a reclaimed node's id may be reused by a later allocation, and a memo
table is a lossy cache, so dropping an entry costs a recomputation,
never correctness (Brace, Rudell and Bryant, "Efficient Implementation
of a BDD Package", DAC 1990).
"""

from __future__ import annotations

from typing import Dict


class OperationCache:
    """A memo table with hit/miss statistics.

    ``name`` labels the table in stats dictionaries (``"add"``,
    ``"cont"``, ``"inner"``, ``"combine"``).
    """

    __slots__ = ("name", "hits", "misses", "table")

    def __init__(self, name: str) -> None:
        self.name = name
        self.hits = 0
        self.misses = 0
        self.table: Dict[tuple, object] = {}

    def __len__(self) -> int:
        return len(self.table)

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
        self.table.clear()

    def stats(self) -> Dict[str, float]:
        return {
            "name": self.name,
            "size": len(self.table),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return (f"OperationCache({self.name!r}, size={len(self.table)}, "
                f"hits={self.hits}, misses={self.misses})")
