"""The public TDD handle: a root edge plus its free index set.

A :class:`TDD` is an immutable view of a tensor over named binary
indices.  The node structure lives in a :class:`TDDManager`; the handle
records which indices the tensor is *over* (its free indices), which
matters because a canonical diagram omits indices the tensor does not
depend on.  The kernels return plain ``(weight, node)`` pairs; the
handle keeps its root as an :class:`~repro.tdd.node.Edge`, so callers
read ``root.weight`` and ``root.node``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

import numpy as np

from repro.errors import TDDError
from repro.indices.index import Index
from repro.tdd.apply import combine_apply, inner_apply, unary_apply
from repro.tdd.arithmetic import (add_edges, conjugate_edge, negate_edge,
                                  scale_edge)
from repro.tdd.contraction import contract_edges
from repro.tdd.manager import TDDManager
from repro.tdd.node import TERMINAL_LEVEL, Edge, Node, Pair
from repro.tdd.slicing import slice_edge

IndexLike = Union[Index, str]


def _as_index(value: IndexLike) -> Index:
    return value if isinstance(value, Index) else Index(value)


class TDD:
    """An immutable tensor represented as a tensor decision diagram."""

    __slots__ = ("manager", "root", "_indices", "__weakref__")

    def __init__(self, manager: TDDManager, root: Pair,
                 indices: Iterable[Index]) -> None:
        idx = tuple(sorted(set(indices), key=manager.order.level))
        self.manager = manager
        self.root = root if isinstance(root, Edge) else Edge(*root)
        self._indices = idx
        # live handles pin their nodes across TDDManager.collect()
        manager._register_handle(self)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def indices(self) -> Tuple[Index, ...]:
        """The free indices, sorted by the manager's order."""
        return self._indices

    @property
    def index_names(self) -> Tuple[str, ...]:
        return tuple(i.name for i in self._indices)

    @property
    def rank(self) -> int:
        return len(self._indices)

    @property
    def is_zero(self) -> bool:
        return self.root.is_zero

    @property
    def is_scalar(self) -> bool:
        return not self._indices

    def scalar_value(self) -> complex:
        if not self.root.node.is_terminal:
            raise TDDError("TDD is not a scalar")
        return self.root.weight

    def size(self) -> int:
        """Number of distinct nodes, including the terminal.

        This is the quantity the paper's Table I reports as ``#node``.
        Every path ends at the terminal and a zero edge points at it
        too, so the walk visits non-terminal nodes only and counts the
        terminal once.
        """
        seen = set()
        stack = [self.root.node]
        while stack:
            node = stack.pop()
            if node.level != TERMINAL_LEVEL and node not in seen:
                seen.add(node)
                stack.append(node.low[1])
                stack.append(node.high[1])
        return len(seen) + 1

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def value(self, assignment: Mapping[IndexLike, int]) -> complex:
        """The tensor entry at the given index assignment."""
        levels: Dict[int, int] = {}
        for key, bit in assignment.items():
            levels[self.manager.level(_as_index(key))] = bit
        for idx in self._indices:
            if self.manager.level(idx) not in levels:
                raise TDDError(f"assignment is missing index {idx.name!r}")
        out = self.root.weight
        node = self.root.node
        while not node.is_terminal:
            bit = levels.get(node.level)
            if bit is None:
                raise TDDError("diagram branches on an index outside the "
                               "declared free set")
            weight, node = node.high if bit else node.low
            out *= weight
            if out == 0:
                return 0j
        return out

    def to_numpy(self) -> np.ndarray:
        """Dense ndarray with axes in ``self.indices`` order."""
        shape = (2,) * self.rank
        out = np.zeros(shape, dtype=complex)
        if self.root.is_zero:
            return out

        def rec(node: Node, weight: complex, prefix: List[int], depth: int) -> None:
            if weight == 0:
                return
            if depth == self.rank:
                out[tuple(prefix)] = weight
                return
            level = self.manager.level(self._indices[depth])
            if node.is_terminal or node.level > level:
                for bit in (0, 1):
                    prefix.append(bit)
                    rec(node, weight, prefix, depth + 1)
                    prefix.pop()
                return
            if node.level < level:
                raise TDDError("diagram branches on an index outside the "
                               "declared free set")
            for bit, (child_weight, child) in ((0, node.low),
                                               (1, node.high)):
                prefix.append(bit)
                rec(child, weight * child_weight, prefix, depth + 1)
                prefix.pop()

        rec(self.root.node, self.root.weight, [], 0)
        return out

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _require_same_manager(self, other: "TDD") -> None:
        if self.manager is not other.manager:
            raise TDDError("operands belong to different managers")

    def __add__(self, other: "TDD") -> "TDD":
        self._require_same_manager(other)
        root = add_edges(self.manager, self.root, other.root)
        return TDD(self.manager, root, set(self._indices) | set(other._indices))

    def __sub__(self, other: "TDD") -> "TDD":
        return self + other.scaled(-1)

    def scaled(self, factor: complex) -> "TDD":
        return TDD(self.manager, scale_edge(self.manager, self.root, factor),
                   self._indices)

    def __neg__(self) -> "TDD":
        return TDD(self.manager, negate_edge(self.manager, self.root),
                   self._indices)

    def conj(self) -> "TDD":
        return TDD(self.manager, conjugate_edge(self.manager, self.root),
                   self._indices)

    # ------------------------------------------------------------------
    # contraction / slicing / renaming
    # ------------------------------------------------------------------
    def contract(self, other: "TDD",
                 sum_over: Iterable[IndexLike]) -> "TDD":
        """``cont(self, other)`` summed over ``sum_over`` (paper §II.B)."""
        self._require_same_manager(other)
        sum_idx = {_as_index(i) for i in sum_over}
        mine = set(self._indices)
        theirs = set(other._indices)
        for idx in sum_idx:
            if idx not in mine and idx not in theirs:
                raise TDDError(f"cannot sum over {idx.name!r}: not an index "
                               f"of either operand")
        levels = tuple(sorted(self.manager.level(i) for i in sum_idx))
        root = contract_edges(self.manager, self.root, other.root, levels)
        free = (mine | theirs) - sum_idx
        return TDD(self.manager, root, free)

    def product(self, other: "TDD") -> "TDD":
        """Pointwise/tensor product: contraction over no indices."""
        return self.contract(other, ())

    def slice(self, assignment: Mapping[IndexLike, int]) -> "TDD":
        """Fix some indices to constants; they leave the free set."""
        root = self.root
        fixed = set()
        for key, bit in assignment.items():
            idx = _as_index(key)
            if idx not in set(self._indices):
                raise TDDError(f"cannot slice on {idx.name!r}: not a free "
                               f"index of this TDD")
            root = slice_edge(self.manager, root, self.manager.level(idx), bit)
            fixed.add(idx)
        return TDD(self.manager, root, set(self._indices) - fixed)

    def rename(self, mapping: Mapping[IndexLike, IndexLike]) -> "TDD":
        """Relabel free indices.

        The relative order of the renamed index set must match the
        original (the diagram is rebuilt level-by-level, so an
        order-changing rename would require a full re-sort, which we
        deliberately do not support — callers pick order-compatible
        names).
        """
        full: Dict[str, Index] = {}
        for src, dst in mapping.items():
            full[_as_index(src).name] = _as_index(dst)
        new_indices = []
        level_map: Dict[int, int] = {}
        for idx in self._indices:
            target = full.get(idx.name, idx)
            self.manager.register(target)
            new_indices.append(target)
            level_map[self.manager.level(idx)] = self.manager.level(target)
        old_levels = [self.manager.level(i) for i in self._indices]
        new_levels = [level_map[lv] for lv in old_levels]
        if sorted(new_levels) != new_levels or len(set(new_levels)) != len(new_levels):
            raise TDDError("rename does not preserve the relative index order")

        root = unary_apply(
            self.manager, self.root,
            rebuild=lambda node, low, high: self.manager.make_pair(
                level_map[node.level], low, high))
        return TDD(self.manager, root, new_indices)

    # ------------------------------------------------------------------
    # state-vector helpers
    # ------------------------------------------------------------------
    def inner(self, other: "TDD") -> complex:
        """⟨self|other⟩ over the shared index set (conjugates ``self``)."""
        self._require_same_manager(other)
        if set(self._indices) != set(other._indices):
            raise TDDError("inner product requires identical index sets")
        levels = tuple(self.manager.level(i) for i in self._indices)
        return inner_apply(self.manager, self.root, other.root, levels)

    def norm(self) -> float:
        """Euclidean norm of the tensor viewed as a vector."""
        return abs(self.inner(self)) ** 0.5

    # ------------------------------------------------------------------
    # comparison
    # ------------------------------------------------------------------
    def same_as(self, other: "TDD") -> bool:
        """Exact canonical-form equality (same manager)."""
        return (self.manager is other.manager
                and self.root.same_as(other.root)
                and set(self._indices) == set(other._indices))

    def allclose(self, other: "TDD", tol: float = 1e-8) -> bool:
        """Numerical equality via the norm of the difference."""
        self._require_same_manager(other)
        diff = self - other
        if diff.is_zero:
            return True
        return diff.inner(diff).real <= tol ** 2

    def __repr__(self) -> str:
        names = ",".join(self.index_names[:6])
        more = ",..." if self.rank > 6 else ""
        return f"TDD(rank={self.rank}, indices=[{names}{more}], size={self.size()})"


def linear_combination(manager: TDDManager,
                       terms: Sequence[Tuple[complex, TDD]],
                       indices: Iterable[Index] = ()) -> TDD:
    """``sum_i c_i t_i`` over ``indices`` and every term's indices.

    One n-ary walk (:func:`~repro.tdd.apply.combine_apply`) builds the
    sum, where a chain of ``acc + t.scaled(c)`` would build and intern
    every partial sum.  Terms are summed in the order given.
    """
    free = set(indices)
    for _, term in terms:
        if term.manager is not manager:
            raise TDDError("operands belong to different managers")
        free.update(term.indices)
    root = combine_apply(manager, [(coefficient, term.root)
                                   for coefficient, term in terms])
    return TDD(manager, root, free)
