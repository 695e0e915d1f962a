"""Structured TDD constructors.

Besides the generic dense conversion (:func:`from_numpy`, used for
small tensors and as the canonical reference in tests), the
constructors here build structured diagrams without ever materialising
a dense tensor:

* :func:`delta` — the rank-k "all indices equal" tensor (identity wires
  and hyper-edge merging),
* :func:`basis_state` — the computational basis state ``|bits⟩``
  (1 iff every index carries its given bit),
* :func:`identity` — the identity matrix as a product of wire deltas.

Gate diagrams are not built here: :meth:`repro.gates.gate.Gate.to_tdd`
walks a gate's levels directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

import numpy as np

from repro.errors import TDDError
from repro.indices.index import Index
from repro.tdd.apply import add_apply
from repro.tdd.manager import TDDManager
from repro.tdd.node import Pair
from repro.tdd.tdd import TDD


def zero(manager: TDDManager, indices: Iterable[Index] = ()) -> TDD:
    """The zero tensor over ``indices``."""
    for idx in indices:
        manager.register(idx)
    return TDD(manager, manager.zero_edge(), indices)


def scalar(manager: TDDManager, value: complex) -> TDD:
    """A rank-0 tensor."""
    return TDD(manager, manager.scalar_edge(value), ())


def from_numpy(manager: TDDManager, array: np.ndarray,
               indices: Sequence[Index]) -> TDD:
    """Convert a dense tensor with the given axis labels to a TDD.

    ``array`` must have shape ``(2,) * len(indices)``; axis *i* is
    labelled ``indices[i]``.  Intended for small gate blocks — the cost
    is linear in the array size.
    """
    array = np.asarray(array, dtype=complex)
    indices = list(indices)
    if array.shape != (2,) * len(indices):
        raise TDDError(f"array shape {array.shape} does not match "
                       f"{len(indices)} binary indices")
    if len(set(i.name for i in indices)) != len(indices):
        raise TDDError("duplicate index labels in from_numpy")
    for idx in indices:
        manager.register(idx)
    # Reorder axes so that axis order follows the manager's level order.
    perm = sorted(range(len(indices)),
                  key=lambda ax: manager.level(indices[ax]))
    array = np.transpose(array, perm)
    sorted_indices = [indices[ax] for ax in perm]
    levels = [manager.level(i) for i in sorted_indices]

    cache: Dict[bytes, Pair] = {}

    def build(sub: np.ndarray, depth: int) -> Pair:
        key = sub.tobytes()
        cached = cache.get(key)
        if cached is not None:
            return cached
        if depth == len(levels):
            # any zero leaf is the zero edge, weight 0j
            result = (complex(sub) or 0j, manager.terminal)
        else:
            low = build(sub[0], depth + 1)
            high = build(sub[1], depth + 1)
            result = manager.make_pair(levels[depth], low, high)
        cache[key] = result
        return result

    root = build(array, 0)
    return TDD(manager, root, sorted_indices)


def delta(manager: TDDManager, indices: Iterable[Index]) -> TDD:
    """The rank-k delta: 1 iff all indices carry the same value.

    For two indices this is the identity wire; with one index it is the
    all-ones vector; the empty delta is defined as the scalar 1, the
    neutral element for tensor products of wires.
    """
    indices = tuple(indices)
    for idx in indices:
        manager.register(idx)
    if not indices:
        return scalar(manager, 1)
    levels = sorted(manager.level(i) for i in indices)
    zero_pair = (0j, manager.terminal)
    all0 = all1 = (1 + 0j, manager.terminal)
    for level in reversed(levels):
        all0 = manager.make_pair(level, all0, zero_pair)
        all1 = manager.make_pair(level, zero_pair, all1)
    root = add_apply(manager, all0, all1)
    return TDD(manager, root, indices)


def basis_state(manager: TDDManager, indices: Sequence[Index],
                bits: Sequence[int]) -> TDD:
    """The computational basis state ``|bits⟩`` over ``indices``: 1 iff
    index *i* equals ``bits[i]`` for all *i*."""
    indices = list(indices)
    if len(bits) != len(indices):
        raise TDDError("bits/indices length mismatch")
    for idx in indices:
        manager.register(idx)
    pairs = sorted(zip(indices, bits), key=lambda p: manager.level(p[0]))
    zero_pair = (0j, manager.terminal)
    root = (1 + 0j, manager.terminal)
    for idx, bit in reversed(pairs):
        level = manager.level(idx)
        if bit:
            root = manager.make_pair(level, zero_pair, root)
        else:
            root = manager.make_pair(level, root, zero_pair)
    return TDD(manager, root, indices)


def identity(manager: TDDManager, row_indices: Sequence[Index],
             col_indices: Sequence[Index]) -> TDD:
    """The identity matrix as a product of per-qubit wire deltas."""
    if len(row_indices) != len(col_indices):
        raise TDDError("identity needs equal row/col index counts")
    result = scalar(manager, 1)
    for r, c in zip(row_indices, col_indices):
        result = result.product(delta(manager, (r, c)))
    return result
