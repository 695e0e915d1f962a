"""TDD slicing and non-zero path search.

Slicing fixes one index to a constant (paper, Section II.B); it is the
workhorse of the addition-partition scheme and of the basis
decomposition of projectors (Section IV.A), which locates the *leftmost
non-zero path* of a projector TDD to extract its first non-zero column.

Both operations run on the explicit-stack machinery from
:mod:`repro.tdd.apply` — no Python recursion, so they work on diagrams
of arbitrary depth under the default interpreter recursion limit.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterator, Optional, Sequence, Tuple

from repro.tdd.apply import unary_apply
from repro.tdd.manager import TDDManager
from repro.tdd.node import Edge, Node


def slice_edge(manager: TDDManager, edge: Edge, level: int, value: int) -> Edge:
    """The tensor of ``edge`` with the index at ``level`` fixed to ``value``.

    The resulting edge no longer depends on that index.
    """
    if value not in (0, 1):
        raise ValueError(f"slice value must be 0 or 1, got {value!r}")

    def shortcut(node: Node) -> Optional[Edge]:
        if node.level > level:
            # below the sliced index: subtree unchanged
            return Edge(1 + 0j, node)
        if node.level == level:
            chosen = node.high if value else node.low
            return manager.make_edge(chosen.weight, chosen.node)
        return None

    return unary_apply(
        manager, edge,
        rebuild=lambda node, low, high: manager.make_node(node.level,
                                                          low, high),
        shortcut=shortcut)


def slice_many(manager: TDDManager, edge: Edge,
               assignment: Dict[int, int]) -> Edge:
    """Slice several levels at once (applied top-down)."""
    result = edge
    for level in sorted(assignment):
        result = slice_edge(manager, result, level, assignment[level])
    return result


def cofactor_assignments(levels: Sequence[int]
                         ) -> Iterator[Dict[int, int]]:
    """All ``2^k`` assignments of ``levels``, in lexicographic bit order.

    The enumeration order is deterministic, so cofactors summed back
    in this order give the same diagram on every run.
    """
    ordered = sorted(levels)
    for bits in itertools.product((0, 1), repeat=len(ordered)):
        yield dict(zip(ordered, bits))


def enumerate_cofactors(manager: TDDManager, edge: Edge,
                        levels: Sequence[int]
                        ) -> Iterator[Tuple[Dict[int, int], Edge]]:
    """Yield ``(assignment, sliced edge)`` over all assignments of
    ``levels``.

    The cofactors sum back to the original tensor over the sliced
    indices: ``T = sum_b T|_{levels=b}`` whenever the sliced indices
    are summed away afterwards — the identity behind the
    addition-partition scheme.
    """
    for assignment in cofactor_assignments(levels):
        yield assignment, slice_many(manager, edge, assignment)


def first_nonzero_assignment(edge: Edge,
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
    if edge.is_zero:
        return None
    # Backtracking DFS with an explicit frame stack.  Each frame is
    # ``[node, tried]`` where ``tried`` is 0 (nothing yet), 1 (descended
    # low) or 2 (descended high); the successful path is read off the
    # frames when the terminal is reached.
    frames = [[edge.node, 0]]
    while frames:
        node, tried = frames[-1]
        if node.is_terminal:
            assignment: Dict[int, int] = {}
            for frame_node, frame_tried in frames[:-1]:
                if frame_node.level in target_levels:
                    assignment[frame_node.level] = frame_tried - 1
            return assignment
        if tried == 0 and not node.low.is_zero:
            frames[-1][1] = 1
            frames.append([node.low.node, 0])
        elif tried <= 1 and not node.high.is_zero:
            frames[-1][1] = 2
            frames.append([node.high.node, 0])
        else:
            frames.pop()
    return None
