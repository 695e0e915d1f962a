"""TDD nodes and edges.

A :class:`Node` branches on one index (identified by its integer level
in the manager's :class:`~repro.indices.order.IndexOrder`) and has two
outgoing weighted edges: ``low`` for index value 0 (drawn blue in the
paper's figures) and ``high`` for index value 1 (red).  The unique
terminal node carries the sentinel level :data:`TERMINAL_LEVEL` and
represents the constant tensor 1.

Nodes are interned by the manager's unique table: structural equality
implies object identity, so all TDD algorithms compare nodes with
``is``.
"""

from __future__ import annotations

import sys
from typing import Optional

#: Sentinel level of the terminal node; larger than any index level.
TERMINAL_LEVEL: int = sys.maxsize


class Node:
    """An interned TDD node.  Do not construct directly; use the manager."""

    __slots__ = ("level", "low", "high")

    def __init__(self, level: int, low: Optional["Edge"],
                 high: Optional["Edge"]) -> None:
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


class Edge:
    """A weighted edge pointing at an interned node.

    The tensor denoted by an edge is ``weight`` times the tensor denoted
    by its node.  A weight of exactly 0 always points at the terminal.
    """

    __slots__ = ("weight", "node")

    def __init__(self, weight: complex, node: Node) -> None:
        self.weight = weight
        self.node = node

    @property
    def is_zero(self) -> bool:
        return self.weight == 0

    def same_as(self, other: "Edge") -> bool:
        """Structural equality (valid because nodes are interned)."""
        return self.node is other.node and self.weight == other.weight

    def __repr__(self) -> str:
        return f"Edge({self.weight!r}, {self.node!r})"
