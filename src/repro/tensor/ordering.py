"""The greedy fold order of a tensor network.

The contraction-partition image computation folds a state through one
small TDD per circuit block (:func:`~repro.tensor.network.
contract_network` folds in list order).  The order of the blocks sets
the rank of the intermediate results; :func:`greedy_order` picks it
from the tensors' legs alone, so it is worked out once per circuit and
stored with the blocks (:func:`~repro.image.base.circuit_diagrams`).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, List, Sequence, Set

from repro.indices.index import Index


def greedy_order(legs: Sequence[Iterable[Index]],
                 open_indices: Set[Index]) -> List[int]:
    """Greedy min-resulting-rank fold order of a network.

    ``legs[i]`` are the indices of tensor ``i``.  The fold is simulated
    on index sets only: starting from tensor 0, it repeatedly takes the
    unused tensor that shares an index with the accumulator and leaves
    the fewest accumulator indices (a disconnected tensor only when no
    connected one is left; ties go to the earlier tensor).  An index is
    summed where :func:`~repro.tensor.network.contract_network` sums
    it: when it is not open and no other remaining tensor holds it.
    """
    sets = [set(indices) for indices in legs]
    if not sets:
        return []
    counts = Counter(idx for indices in sets for idx in indices)

    def summed(acc: Set[Index], pos: int) -> Set[Index]:
        return {idx for idx in acc & sets[pos]
                if counts[idx] == 2 and idx not in open_indices}

    order = [0]
    acc = sets[0]
    rest = list(range(1, len(sets)))
    while rest:
        best = None
        best_key = None
        for pos in rest:
            key = (acc.isdisjoint(sets[pos]),
                   len(acc | sets[pos]) - len(summed(acc, pos)))
            if best_key is None or key < best_key:
                best, best_key = pos, key
        gone = summed(acc, best)
        counts.subtract(acc & sets[best])
        acc = (acc | sets[best]) - gone
        rest.remove(best)
        order.append(best)
    return order
