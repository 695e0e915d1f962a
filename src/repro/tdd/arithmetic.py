"""Pointwise TDD arithmetic: addition, scaling, conjugation.

All functions take and return plain ``(weight, node)`` pairs inside one
manager (an :class:`~repro.tdd.node.Edge` is such a pair too); the
index-set bookkeeping lives on the :class:`TDD` wrapper.  The heavy lifting happens in :mod:`repro.tdd.apply` — an
explicit-work-stack engine, so none of these functions consume Python
stack proportional to the diagram depth.  Addition is memoised in the
manager's ``add_cache`` with a symmetric key, exploiting commutativity.
"""

from __future__ import annotations

from repro.tdd.apply import add_apply, unary_apply
from repro.tdd.manager import TDDManager
from repro.tdd.node import Pair

__all__ = ["add_edges", "scale_edge", "negate_edge", "conjugate_edge"]


def add_edges(manager: TDDManager, a: Pair, b: Pair) -> Pair:
    """Pointwise sum of two edges over the union of their index supports."""
    return add_apply(manager, a, b)


def scale_edge(manager: TDDManager, edge: Pair, factor: complex) -> Pair:
    """``factor`` times the tensor of ``edge``."""
    weight, node = edge
    return manager.make_edge(weight * factor, node)


def negate_edge(manager: TDDManager, edge: Pair) -> Pair:
    return scale_edge(manager, edge, -1)


def conjugate_edge(manager: TDDManager, edge: Pair) -> Pair:
    """Entry-wise complex conjugate of the tensor of ``edge``."""
    return unary_apply(
        manager, edge,
        rebuild=lambda node, low, high: manager.make_pair(node.level,
                                                          low, high),
        weight_map=lambda w: w.conjugate())
