"""TDD nodes and edges.

A :class:`Node` branches on one index (identified by its integer level
in the manager's :class:`~repro.indices.order.IndexOrder`) and has two
outgoing weighted edges: ``low`` for index value 0 (drawn blue in the
paper's figures) and ``high`` for index value 1 (red).  The unique
terminal node carries the sentinel level :data:`TERMINAL_LEVEL` and
represents the constant tensor 1.

An edge is a plain ``(weight, node)`` pair.  Node children are exact
tuples, and so are the frames, cofactors, memo values and results of
the kernels in :mod:`repro.tdd.apply`: a tuple costs a fraction of an
object with attributes, and the kernels make one per frame.
:class:`Edge` is the same pair as a named tuple.  It is what a
:class:`~repro.tdd.tdd.TDD` handle holds as its root and what the
manager's public edge constructors return, so callers outside the
kernel read ``edge.weight`` and ``edge.node``.  Being a tuple, it
feeds every kernel as it is, and it compares by value.

Nodes are interned by the manager's unique table: structural equality
implies object identity, so all TDD algorithms compare nodes with
``is``.
"""

from __future__ import annotations

import sys
from typing import NamedTuple, Optional, Tuple

#: Sentinel level of the terminal node; larger than any index level.
TERMINAL_LEVEL: int = sys.maxsize


class Node:
    """An interned TDD node.  Do not construct directly; use the manager.

    ``low`` and ``high`` are ``(weight, node)`` pairs; a zero child is
    ``(0j, terminal)``.
    """

    __slots__ = ("level", "low", "high")

    def __init__(self, level: int, low: Optional[Tuple[complex, "Node"]],
                 high: Optional[Tuple[complex, "Node"]]) -> None:
        self.level = level
        self.low = low
        self.high = high

    @property
    def is_terminal(self) -> bool:
        return self.level == TERMINAL_LEVEL

    def __repr__(self) -> str:
        if self.is_terminal:
            return "Node(terminal)"
        return f"Node(level={self.level})"


#: an edge as the kernels pass it: an :class:`Edge` or a plain tuple
Pair = Tuple[complex, Node]


class Edge(NamedTuple):
    """A weighted edge pointing at an interned node.

    The tensor denoted by an edge is ``weight`` times the tensor denoted
    by its node.  A weight of exactly 0 always points at the terminal.
    Equality is the tuple's: equal weights and the same (interned)
    node.
    """

    weight: complex
    node: Node

    @property
    def is_zero(self) -> bool:
        return self.weight == 0

    def same_as(self, other: Tuple[complex, Node]) -> bool:
        """Structural equality (valid because nodes are interned)."""
        weight, node = other
        return self.node is node and self.weight == weight
