"""TDD slicing and non-zero path search.

Slicing fixes one index to a constant (paper, Section II.B); it is the
workhorse of the addition-partition scheme and of the basis
decomposition of projectors (Section IV.A), which locates the *leftmost
non-zero path* of a projector TDD to extract its first non-zero column.
The *largest-entry path* picks the pivots of the Householder completion
behind :meth:`~repro.subspace.subspace.Subspace.complement`.

Both operations run on the explicit-stack machinery from
:mod:`repro.tdd.apply` — no Python recursion, so they work on diagrams
of arbitrary depth under the default interpreter recursion limit.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from repro.tdd.apply import unary_apply
from repro.tdd.manager import TDDManager
from repro.tdd.node import TERMINAL_LEVEL, Node, Pair


def slice_edge(manager: TDDManager, edge: Pair, level: int, value: int) -> Pair:
    """The tensor of ``edge`` with the index at ``level`` fixed to ``value``.

    The resulting edge no longer depends on that index.
    """
    if value not in (0, 1):
        raise ValueError(f"slice value must be 0 or 1, got {value!r}")

    def shortcut(node: Node) -> Optional[Pair]:
        if node.level > level:
            # below the sliced index: subtree unchanged
            return (1 + 0j, node)
        if node.level == level:
            # a child pair is already an edge (a zero child is the
            # zero edge)
            return node.high if value else node.low
        return None

    return unary_apply(
        manager, edge,
        rebuild=lambda node, low, high: manager.make_pair(node.level,
                                                          low, high),
        shortcut=shortcut)


def first_nonzero_assignment(edge: Pair,
                             target_levels: FrozenSet[int]
                             ) -> Optional[Dict[int, int]]:
    """Leftmost assignment of ``target_levels`` with a non-zero slice.

    Returns a partial assignment ``{level: bit}`` such that slicing
    ``edge`` on it yields a non-zero tensor, preferring 0 before 1 at
    every target index (the paper's "leftmost non-zero path").  Levels
    in ``target_levels`` that the diagram does not branch on are
    unconstrained and omitted (callers treat them as 0).  Returns
    ``None`` iff the edge denotes the zero tensor.
    """
    weight, root = edge
    if weight == 0:
        return None
    # Backtracking DFS with an explicit frame stack.  Each frame is
    # ``[node, tried]`` where ``tried`` is 0 (nothing yet), 1 (descended
    # low) or 2 (descended high); the successful path is read off the
    # frames when the terminal is reached.
    frames = [[root, 0]]
    while frames:
        node, tried = frames[-1]
        if node.is_terminal:
            assignment: Dict[int, int] = {}
            for frame_node, frame_tried in frames[:-1]:
                if frame_node.level in target_levels:
                    assignment[frame_node.level] = frame_tried - 1
            return assignment
        (low_weight, low), (high_weight, high) = node.low, node.high
        if tried == 0 and low_weight != 0:
            frames[-1][1] = 1
            frames.append([low, 0])
        elif tried <= 1 and high_weight != 0:
            frames[-1][1] = 2
            frames.append([high, 0])
        else:
            frames.pop()
    return None


def largest_entry(edge: Pair) -> Optional[Tuple[Dict[int, int], complex]]:
    """An assignment of largest ``|entry|`` and the entry it reaches.

    One memoised post-order walk records, per node, the largest
    magnitude over its paths to the terminal; the descent then takes
    the branch of larger weighted magnitude, ``low`` on ties.  Levels
    the diagram skips are omitted (every bit reaches the same entry;
    callers take 0).  Returns ``None`` iff the edge denotes zero.
    """
    entry, root = edge
    if entry == 0:
        return None
    best: Dict[int, float] = {}
    stack = [root]
    while stack:
        node = stack[-1]
        if node.key in best:
            stack.pop()
            continue
        if node.level == TERMINAL_LEVEL:
            best[node.key] = 1.0
            stack.pop()
            continue
        (low_weight, low), (high_weight, high) = node.low, node.high
        pending = [child for child in (low, high) if child.key not in best]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        best[node.key] = max(abs(low_weight) * best[low.key],
                             abs(high_weight) * best[high.key])
    assignment: Dict[int, int] = {}
    node = root
    while node.level != TERMINAL_LEVEL:
        (low_weight, low), (high_weight, high) = node.low, node.high
        bit = int(abs(high_weight) * best[high.key]
                  > abs(low_weight) * best[low.key])
        assignment[node.level] = bit
        if bit:
            entry *= high_weight
            node = high
        else:
            entry *= low_weight
            node = low
    return assignment, entry
