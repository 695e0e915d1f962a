"""Fold a tensor network over any tensor backend (TDD or dense).

A network is a list of tensors plus a set of *open* indices (its
external legs).  :func:`contract_network` folds the tensors pairwise
into one accumulator; an index shared by the two operands is summed
exactly when it is not open and appears in no other remaining tensor —
this is what makes hyper-edge indices (shared by three or more tensors,
paper Section V.A) work without special cases.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Optional, Sequence

from repro.errors import TDDError
from repro.indices.index import Index


def contract_network(tensors: Sequence[object],
                     open_indices: Iterable[Index],
                     observer: Optional[Callable[[object], None]] = None
                     ) -> object:
    """Fold ``tensors`` left to right into a single tensor.

    ``tensors`` expose ``indices`` and ``contract(other, sum_over)``;
    ``open_indices`` are never summed away.  Disconnected tensors are
    combined with a tensor product, so the fold always succeeds.  The
    index multiplicities are counted once and then kept up to date step
    by step; ``observer`` is called with every intermediate result.
    """
    if not tensors:
        raise TDDError("cannot contract an empty network")
    open_indices = set(open_indices)
    counts = Counter(idx for tensor in tensors for idx in tensor.indices)
    acc = tensors[0]
    for tensor in tensors[1:]:
        acc_indices = acc.indices
        tensor_indices = tensor.indices
        sum_over = {idx for idx in set(acc_indices) & set(tensor_indices)
                    if counts[idx] == 2 and idx not in open_indices}
        result = acc.contract(tensor, sum_over)
        if observer is not None:
            observer(result)
        counts.subtract(acc_indices)
        counts.subtract(tensor_indices)
        counts.update(result.indices)
        acc = result
    return acc
