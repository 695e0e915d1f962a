"""Tensor networks over any tensor backend (TDD or dense).

A :class:`TensorNetwork` is a list of tensors plus a set of *open*
indices (the network's external legs).  Contraction folds tensors
together pairwise; an index shared by the two operands is summed
exactly when it is not open and appears in no other remaining tensor —
this is what makes hyper-edge indices (shared by three or more tensors,
paper Section V.A) work without special cases.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, List, Optional, Sequence, Set

from repro.errors import TDDError
from repro.indices.index import Index


class TensorNetwork:
    """An open tensor network.

    Parameters
    ----------
    tensors:
        Tensor values exposing ``indices`` and
        ``contract(other, sum_over)``.
    open_indices:
        The external legs; never summed away.
    """

    def __init__(self, tensors: Iterable[object],
                 open_indices: Iterable[Index]) -> None:
        self.tensors: List[object] = list(tensors)
        self.open_indices: Set[Index] = set(open_indices)

    # ------------------------------------------------------------------
    def index_multiplicity(self) -> Counter:
        """How many tensors mention each index."""
        counts: Counter = Counter()
        for tensor in self.tensors:
            for idx in tensor.indices:
                counts[idx] += 1
        return counts

    def all_indices(self) -> Set[Index]:
        out: Set[Index] = set()
        for tensor in self.tensors:
            out.update(tensor.indices)
        return out

    def validate(self) -> None:
        missing = self.open_indices - self.all_indices()
        if missing:
            raise TDDError(f"open indices {sorted(i.name for i in missing)} "
                           f"do not appear in the network")

    # ------------------------------------------------------------------
    def contract_pair(self, pos_a: int, pos_b: int,
                      observer: Optional[Callable[[object], None]] = None
                      ) -> None:
        """Contract tensors at two positions in place.

        Sums every index shared by the pair that is closed and unused
        elsewhere.
        """
        if pos_a == pos_b:
            raise ValueError("cannot contract a tensor with itself")
        a = self.tensors[pos_a]
        b = self.tensors[pos_b]
        counts = self.index_multiplicity()
        shared = set(a.indices) & set(b.indices)
        sum_over = {idx for idx in shared
                    if idx not in self.open_indices and counts[idx] == 2}
        result = a.contract(b, sum_over)
        if observer is not None:
            observer(result)
        keep = [t for i, t in enumerate(self.tensors)
                if i not in (pos_a, pos_b)]
        keep.append(result)
        self.tensors = keep

    def contract_all(self,
                     order: Optional[Sequence[int]] = None,
                     observer: Optional[Callable[[object], None]] = None
                     ) -> object:
        """Fold the whole network into a single tensor.

        ``order`` names tensor positions (into the *original* list); the
        fold contracts them left to right into an accumulator.  By
        default the list order is used.  Disconnected tensors are
        combined with a tensor product, so the fold always succeeds.
        Each step sums what
        :meth:`contract_pair` would; the index multiplicities are
        counted once and then kept up to date step by step.
        """
        if not self.tensors:
            raise TDDError("cannot contract an empty network")
        sequence = list(order) if order is not None else list(
            range(len(self.tensors)))
        if sorted(sequence) != list(range(len(self.tensors))):
            raise ValueError("order must be a permutation of tensor positions")
        counts = self.index_multiplicity()
        open_indices = self.open_indices
        acc = self.tensors[sequence[0]]
        for pos in sequence[1:]:
            tensor = self.tensors[pos]
            acc_indices = acc.indices
            tensor_indices = tensor.indices
            sum_over = {idx for idx in set(acc_indices) & set(tensor_indices)
                        if counts[idx] == 2 and idx not in open_indices}
            result = acc.contract(tensor, sum_over)
            if observer is not None:
                observer(result)
            for idx in acc_indices:
                counts[idx] -= 1
            for idx in tensor_indices:
                counts[idx] -= 1
            for idx in result.indices:
                counts[idx] += 1
            acc = result
        return acc

    def __len__(self) -> int:
        return len(self.tensors)

    def __repr__(self) -> str:
        return (f"TensorNetwork(tensors={len(self.tensors)}, "
                f"open={len(self.open_indices)})")
