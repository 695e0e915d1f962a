"""Dense tensors and tensor-network folds.

The dense backend (:class:`DenseTensor`) is the *reference oracle* for
the TDD path: every TDD computation on a small system can be replayed
densely and compared entry-by-entry.  :func:`contract_network` is
generic over any tensor implementation exposing ``indices`` /
``contract(other, sum_over)`` — i.e. it folds both
:class:`DenseTensor` and :class:`~repro.tdd.tdd.TDD` values — and is
the fold underneath every image computation.
"""

from repro.tensor.dense import DenseTensor
from repro.tensor.network import contract_network

__all__ = ["DenseTensor", "contract_network"]
