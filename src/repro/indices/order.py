"""Global index orders for TDDs.

A TDD is canonical only relative to a fixed linear order on the indices
(paper, Section II.B).  :class:`IndexOrder` owns that order: indices are
registered once and assigned increasing integer *levels*; every TDD node
stores the level of the index it branches on, and all TDD algorithms
recurse on the smaller level first.

The default policy used throughout the package is *qubit-major*: the
wire index ``x_i^j`` sorts by ``(i, j)``, so all indices of one qubit
are adjacent.  This matches the order of the paper's Fig. 1 projector
TDD (x1 y1 x2 y2 x3 y3 with x/y interleaved per qubit) and is what makes
the GHZ and Bernstein-Vazirani TDDs linear in the number of qubits.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.errors import IndexError_
from repro.indices.index import Index


class IndexOrder:
    """A mutable, append-only linear order on :class:`Index` objects."""

    def __init__(self, indices: Iterable[Index] = ()) -> None:
        self._levels: Dict[str, int] = {}
        self._indices: List[Index] = []
        for idx in indices:
            self.register(idx)

    def register(self, index: Index) -> int:
        """Append ``index`` to the order (idempotent); return its level."""
        level = self._levels.get(index.name)
        if level is None:
            level = len(self._indices)
            self._levels[index.name] = level
            self._indices.append(index)
        return level

    def register_all(self, indices: Iterable[Index]) -> None:
        for idx in indices:
            self.register(idx)

    def level(self, index: Index) -> int:
        """The level of a registered index; raises if unknown."""
        try:
            return self._levels[index.name]
        except KeyError:
            raise IndexError_(f"index {index.name!r} is not registered "
                              f"in this order") from None

    def __contains__(self, index: Index) -> bool:
        return index.name in self._levels

    def __len__(self) -> int:
        return len(self._indices)

    def index_at(self, level: int) -> Index:
        return self._indices[level]

    def sorted(self, indices: Iterable[Index]) -> List[Index]:
        """Return ``indices`` sorted by level."""
        return sorted(indices, key=self.level)

    def __repr__(self) -> str:
        names = ", ".join(i.name for i in self._indices[:8])
        more = "..." if len(self._indices) > 8 else ""
        return f"IndexOrder([{names}{more}], n={len(self._indices)})"
