"""Structured TDD constructors.

Besides the generic dense conversion (:func:`from_numpy`, used for
small tensors and as the canonical reference in tests), the
constructors here build structured diagrams without ever materialising
a dense tensor:

* :func:`delta` — the rank-k "all indices equal" tensor (identity wires
  and hyper-edge merging),
* :func:`indicator` / :func:`indicator_pattern` — 1 iff every index
  carries a given bit,
* :func:`basis_state` / :func:`computational_basis_projector`.

Gate diagrams are not built here: :meth:`repro.gates.gate.Gate.to_tdd`
walks a gate's levels directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

import numpy as np

from repro.errors import TDDError
from repro.indices.index import Index
from repro.tdd.manager import TDDManager
from repro.tdd.node import Edge
from repro.tdd.tdd import TDD


def zero(manager: TDDManager, indices: Iterable[Index] = ()) -> TDD:
    """The zero tensor over ``indices``."""
    for idx in indices:
        manager.register(idx)
    return TDD(manager, manager.zero_edge(), indices)


def scalar(manager: TDDManager, value: complex) -> TDD:
    """A rank-0 tensor."""
    return TDD(manager, manager.scalar_edge(value), ())


def ones(manager: TDDManager, indices: Iterable[Index]) -> TDD:
    """The all-ones tensor over ``indices``."""
    indices = tuple(indices)
    for idx in indices:
        manager.register(idx)
    return TDD(manager, manager.scalar_edge(1), indices)


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

    cache: Dict[bytes, Edge] = {}

    def build(sub: np.ndarray, depth: int) -> Edge:
        key = sub.tobytes()
        cached = cache.get(key)
        if cached is not None:
            return cached
        if depth == len(levels):
            result = manager.scalar_edge(complex(sub))
        else:
            low = build(sub[0], depth + 1)
            high = build(sub[1], depth + 1)
            result = manager.make_node(levels[depth], low, high)
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
    all0 = manager.scalar_edge(1)
    all1 = manager.scalar_edge(1)
    for level in reversed(levels):
        all0 = manager.make_node(level, all0, manager.zero_edge())
        all1 = manager.make_node(level, manager.zero_edge(), all1)
    root = manager.add(all0, all1)
    return TDD(manager, root, indices)


def indicator(manager: TDDManager, indices: Iterable[Index],
              value: int = 1) -> TDD:
    """1 iff every index equals ``value``, else 0."""
    indices = tuple(indices)
    for idx in indices:
        manager.register(idx)
    root = manager.scalar_edge(1)
    for level in sorted((manager.level(i) for i in indices), reverse=True):
        if value:
            root = manager.make_node(level, manager.zero_edge(), root)
        else:
            root = manager.make_node(level, root, manager.zero_edge())
    return TDD(manager, root, indices)


def indicator_pattern(manager: TDDManager, indices: Sequence[Index],
                      bits: Sequence[int]) -> TDD:
    """1 iff index *i* equals ``bits[i]`` for all *i* (anti-controls)."""
    indices = list(indices)
    if len(bits) != len(indices):
        raise TDDError("bits/indices length mismatch")
    for idx in indices:
        manager.register(idx)
    pairs = sorted(zip(indices, bits), key=lambda p: manager.level(p[0]))
    root = manager.scalar_edge(1)
    for idx, bit in reversed(pairs):
        level = manager.level(idx)
        if bit:
            root = manager.make_node(level, manager.zero_edge(), root)
        else:
            root = manager.make_node(level, root, manager.zero_edge())
    return TDD(manager, root, indices)


def basis_state(manager: TDDManager, indices: Sequence[Index],
                bits: Sequence[int]) -> TDD:
    """The computational basis state |bits⟩ over ``indices``.

    Structurally identical to :func:`indicator_pattern`; kept as a
    separate name because callers mean a *state*, not a predicate.
    """
    return indicator_pattern(manager, indices, bits)


def computational_basis_projector(manager: TDDManager,
                                  row_indices: Sequence[Index],
                                  col_indices: Sequence[Index],
                                  bits: Sequence[int]) -> TDD:
    """The rank-1 projector |bits⟩⟨bits| as a matrix tensor."""
    ket = basis_state(manager, row_indices, bits)
    bra = basis_state(manager, col_indices, bits)
    return ket.product(bra)


def outer_product(ket: TDD, bra_source: TDD,
                  bra_indices: Sequence[Index]) -> TDD:
    """|ket⟩⟨bra_source| with the bra relabelled onto ``bra_indices``.

    ``bra_source`` must have the same number of indices as
    ``bra_indices``; it is conjugated and renamed index-by-index in
    sorted order.
    """
    src = list(bra_source.indices)
    if len(src) != len(bra_indices):
        raise TDDError("bra index count mismatch")
    mapping = dict(zip(src, bra_indices))
    bra = bra_source.conj().rename(mapping)
    return ket.product(bra)


def identity(manager: TDDManager, row_indices: Sequence[Index],
             col_indices: Sequence[Index]) -> TDD:
    """The identity matrix as a product of per-qubit wire deltas."""
    if len(row_indices) != len(col_indices):
        raise TDDError("identity needs equal row/col index counts")
    result = scalar(manager, 1)
    for r, c in zip(row_indices, col_indices):
        result = result.product(delta(manager, (r, c)))
    return result
