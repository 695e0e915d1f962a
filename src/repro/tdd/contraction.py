"""TDD contraction.

``contract_edges(m, a, b, sum_levels)`` computes the tensor

    C[free] = sum over the indices in ``sum_levels`` of  A · B,

the fundamental tensor-network operation (paper, Section II.B).  Shared
indices that are *not* summed remain free (this is what hyper-edge
indices shared by three or more tensors need).  A summed index that
neither operand depends on contributes a factor 2 per the definition of
summation over {0, 1}.

The work-stack engine in :mod:`repro.tdd.apply` processes levels in the
global order; weights are factored out so the memo key is the node pair
and the id of the summed levels still ahead, which gives high hit rates
across repeated image computations.
"""

from __future__ import annotations

from typing import Tuple

from repro.tdd.apply import contract_apply
from repro.tdd.manager import TDDManager
from repro.tdd.node import Pair


def contract_edges(manager: TDDManager, a: Pair, b: Pair,
                   sum_levels: Tuple[int, ...]) -> Pair:
    """Contract two edges over the (sorted) levels in ``sum_levels``."""
    sum_levels = tuple(sorted(sum_levels))
    return contract_apply(manager, a, b, sum_levels)
