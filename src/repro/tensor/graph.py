"""The undirected index graph of a tensor network (paper, Section V.A).

Every vertex is a tensor index; two vertices are adjacent when they are
legs of the same tensor (so each gate contributes a clique).  Because
the circuit layer *reuses* one index for the input and output of a
diagonal-gate wire or a control wire, hyper-edges appear naturally:
the reused index is a single vertex with a high degree — exactly the
vertices the addition-partition scheme slices (see the Grover example,
paper Fig. 5).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set

from repro.indices.index import Index


class IndexGraph:
    """Adjacency-set graph over :class:`Index` vertices."""

    def __init__(self) -> None:
        self._adj: Dict[Index, Set[Index]] = {}

    @staticmethod
    def from_tensors(tensors: Iterable[object]) -> "IndexGraph":
        """Build the graph of a network: a clique per tensor."""
        graph = IndexGraph()
        for tensor in tensors:
            graph.add_clique(tensor.indices)
        return graph

    # ------------------------------------------------------------------
    def add_vertex(self, index: Index) -> None:
        self._adj.setdefault(index, set())

    def add_edge(self, a: Index, b: Index) -> None:
        if a == b:
            self.add_vertex(a)
            return
        self._adj.setdefault(a, set()).add(b)
        self._adj.setdefault(b, set()).add(a)

    def add_clique(self, indices: Sequence[Index]) -> None:
        indices = list(indices)
        for idx in indices:
            self.add_vertex(idx)
        for i, a in enumerate(indices):
            for b in indices[i + 1:]:
                self.add_edge(a, b)

    # ------------------------------------------------------------------
    @property
    def vertices(self) -> List[Index]:
        return list(self._adj)

    def degree(self, index: Index) -> int:
        return len(self._adj.get(index, ()))

    def neighbours(self, index: Index) -> Set[Index]:
        return set(self._adj.get(index, ()))

    def degrees(self) -> Dict[Index, int]:
        return {idx: len(adj) for idx, adj in self._adj.items()}

    def highest_degree(self, count: int,
                       exclude: Iterable[Index] = ()) -> List[Index]:
        """The ``count`` highest-degree vertices (ties broken by name).

        ``exclude`` removes vertices that must stay un-sliced (e.g. the
        network's open boundary indices).
        """
        banned = set(exclude)
        candidates = [(idx, deg) for idx, deg in self.degrees().items()
                      if idx not in banned]
        candidates.sort(key=lambda pair: (-pair[1], pair[0].name))
        return [idx for idx, _deg in candidates[:count]]

    def __len__(self) -> int:
        return len(self._adj)

    def edge_count(self) -> int:
        return sum(len(adj) for adj in self._adj.values()) // 2

    def __repr__(self) -> str:
        return f"IndexGraph(vertices={len(self)}, edges={self.edge_count()})"
