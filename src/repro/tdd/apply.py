"""The iterative apply engine: explicit-work-stack TDD traversals.

Every structural TDD algorithm runs on explicit heap-allocated stacks,
so the whole kernel works on diagrams of any depth under the
interpreter's *default* recursion limit (benchmark circuits register
thousands of levels):

* a **binary apply** machine (:func:`add_apply`, :func:`contract_apply`)
  that simulates the recursion with ENTER/EXIT frames on a work stack
  and a value stack, memoised in the manager's
  :class:`~repro.tdd.cache.OperationCache` tables;
* an **n-ary apply** (:func:`combine_apply`) — the same frames over a
  tuple of operands, forming a linear combination ``sum_i c_i e_i`` in
  one walk;
* a **scalar walk** (:func:`inner_apply`) — the same frames over a node
  pair, returning ``<a|b>`` as a ``complex`` without building a node;
* a **unary rewrite** machine (:func:`unary_apply`) — a memoised
  postorder rebuild used by conjugation, renaming and slicing.

The memoised kernels read and write their tables' ``table`` dicts
directly and add their hit/miss counts once per call.  Memo keys are
flat tuples of node ids and numbers: ``(id_lo, w_lo, id_hi, w_hi)`` for
addition, ``(id_a, id_b, suffix_id)`` for contraction and
``(id_a, id_b, remaining)`` for the inner product; the n-ary walk keys
a frame by its ``(weight, node)`` operands and empties its table when
the call ends.  Entries are valid only while the nodes they name are
interned, which is why :meth:`~repro.tdd.manager.TDDManager.collect`
empties every table.
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING, Tuple

from repro.errors import TDDError
from repro.tdd.node import TERMINAL_LEVEL, Edge, Node

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tdd.manager import TDDManager

#: work-stack frame tags
_ENTER = 0
_EXIT = 1
#: contraction EXIT variants (which combine step to run)
_COMBINE_NODE = 2
_COMBINE_SUM = 3
_COMBINE_FACTOR = 4


# ----------------------------------------------------------------------
# binary apply: addition
# ----------------------------------------------------------------------
def add_apply(manager: "TDDManager", a: Edge, b: Edge) -> Edge:
    """Pointwise sum of two edges (iterative, memoised).

    The memo key is ``(id_lo, w_lo, id_hi, w_hi)``, the two operands
    ordered by node id (addition commutes; equal nodes never reach the
    memo).  Weights enter the key at full precision: rounding them
    could alias two different sums onto one entry.
    """
    cache = manager.add_cache
    memo = cache.table
    make_node = manager.make_node
    hits = misses = 0
    stack = [(_ENTER, a, b)]
    values = []
    while stack:
        frame = stack.pop()
        if frame[0] == _ENTER:
            _, a, b = frame
            if a.weight == 0:
                values.append(b)
                continue
            if b.weight == 0:
                values.append(a)
                continue
            na, nb = a.node, b.node
            if na is nb:
                values.append(manager.make_edge(a.weight + b.weight, na))
                continue
            ia, ib = id(na), id(nb)
            if ia < ib:
                key = (ia, a.weight, ib, b.weight)
            else:
                key = (ib, b.weight, ia, a.weight)
            cached = memo.get(key)
            if cached is not None:
                hits += 1
                values.append(cached)
                continue
            misses += 1
            # the cofactors on the top level, built inline (a zero
            # child has the terminal as its node, so its cofactor is a
            # zero edge)
            level = min(na.level, nb.level)
            if na.level == level:
                weight, low, high = a.weight, na.low, na.high
                a0 = Edge(weight * low.weight, low.node)
                a1 = Edge(weight * high.weight, high.node)
            else:
                a0 = a1 = a
            if nb.level == level:
                weight, low, high = b.weight, nb.low, nb.high
                b0 = Edge(weight * low.weight, low.node)
                b1 = Edge(weight * high.weight, high.node)
            else:
                b0 = b1 = b
            stack.append((_EXIT, key, level))
            stack.append((_ENTER, a1, b1))
            stack.append((_ENTER, a0, b0))
        else:
            _, key, level = frame
            high = values.pop()
            low = values.pop()
            result = make_node(level, low, high)
            memo[key] = result
            values.append(result)
    cache.hits += hits
    cache.misses += misses
    return values[0]


# ----------------------------------------------------------------------
# n-ary apply: linear combination
# ----------------------------------------------------------------------
def _operands(merged: dict) -> tuple:
    """The ``(weight, node)`` operands of a frame from ``node -> weight``,
    in insertion order, without the weights that summed to zero."""
    return tuple((weight, node) for node, weight in merged.items()
                 if weight != 0)


def combine_apply(manager: "TDDManager", terms) -> Edge:
    """``sum_i c_i e_i`` for ``(c_i, e_i)`` terms, in one walk.

    The walk descends every operand one level at a time, merges the
    operands that meet on one node and builds each result node once,
    with one :meth:`~repro.tdd.manager.TDDManager.make_node`, where a
    chain of binary :func:`add_apply` calls builds every partial sum.
    A frame is the tuple of its ``(weight, node)`` operands in term
    order, and it is its own memo key: node identity and weights at
    full precision, as in :func:`add_apply`.  Those keys rarely recur
    across calls, so ``manager.combine_cache`` is emptied at the end of
    each call and keeps only the hit/miss counts.
    """
    cache = manager.combine_cache
    memo = cache.table
    make_node = manager.make_node
    hits = misses = 0
    merged = {}
    for coefficient, edge in terms:
        weight = coefficient * edge.weight
        if weight != 0:
            merged[edge.node] = merged.get(edge.node, 0) + weight
    stack = [(_ENTER, _operands(merged))]
    values = []
    while stack:
        frame = stack.pop()
        if frame[0] == _ENTER:
            operands = frame[1]
            if len(operands) < 2:
                values.append(manager.make_edge(*operands[0]) if operands
                              else manager.zero_edge())
                continue
            cached = memo.get(operands)
            if cached is not None:
                hits += 1
                values.append(cached)
                continue
            misses += 1
            level = min(node.level for _, node in operands)
            lows, highs = {}, {}
            for weight, node in operands:
                if node.level == level:
                    low, high = node.low, node.high
                    if low.weight != 0:
                        lows[low.node] = (lows.get(low.node, 0)
                                          + weight * low.weight)
                    if high.weight != 0:
                        highs[high.node] = (highs.get(high.node, 0)
                                            + weight * high.weight)
                else:
                    lows[node] = lows.get(node, 0) + weight
                    highs[node] = highs.get(node, 0) + weight
            stack.append((_EXIT, operands, level))
            stack.append((_ENTER, _operands(highs)))
            stack.append((_ENTER, _operands(lows)))
        else:
            _, key, level = frame
            high = values.pop()
            low = values.pop()
            result = make_node(level, low, high)
            memo[key] = result
            values.append(result)
    memo.clear()
    cache.hits += hits
    cache.misses += misses
    return values[0]


# ----------------------------------------------------------------------
# binary apply: contraction
# ----------------------------------------------------------------------
def contract_apply(manager: "TDDManager", a: Edge, b: Edge,
                   levels: Tuple[int, ...]) -> Edge:
    """Contract two edges over the sorted ``levels`` (iterative).

    Frames carry an offset into ``levels`` rather than the remaining
    tuple.  Weights are factored out on entry so the memo key is
    ``(id_a, id_b, suffix_id)``: the unit-weight node pair, ordered by
    id, and the manager-wide id of the summed levels still ahead
    (:meth:`~repro.tdd.manager.TDDManager.suffix_ids`).  The EXIT frame
    re-applies the factored weight.
    """
    cache = manager.cont_cache
    memo = cache.table
    make_edge = manager.make_edge
    suffix = manager.suffix_ids(levels)
    count = len(levels)
    # the sentinel past the last summed level compares above every
    # non-terminal level, so no frame needs a bounds check
    levels = levels + (TERMINAL_LEVEL,)
    hits = misses = 0
    stack = [(_ENTER, a, b, 0)]
    values = []
    while stack:
        frame = stack.pop()
        tag = frame[0]
        if tag == _ENTER:
            _, a, b, at = frame
            if a.weight == 0 or b.weight == 0:
                values.append(manager.zero_edge())
                continue
            weight = a.weight * b.weight
            na, nb = a.node, b.node
            top = min(na.level, nb.level)
            if top == TERMINAL_LEVEL:
                values.append(
                    manager.scalar_edge(weight * (2 ** (count - at))))
                continue
            ka, kb = id(na), id(nb)
            key = ((ka, kb, suffix[at]) if ka <= kb
                   else (kb, ka, suffix[at]))
            cached = memo.get(key)
            if cached is not None:
                hits += 1
                values.append(make_edge(cached.weight * weight, cached.node))
                continue
            misses += 1
            summed = levels[at]
            if summed < top:
                # Neither operand depends on this summed index: factor 2.
                stack.append((_COMBINE_FACTOR, key, weight))
                stack.append((_ENTER, Edge(1 + 0j, na), Edge(1 + 0j, nb),
                              at + 1))
                continue
            # cofactors of the unit-weight operands on ``top``
            if na.level == top:
                a0, a1 = na.low, na.high
            else:
                a0 = a1 = Edge(1 + 0j, na)
            if nb.level == top:
                b0, b1 = nb.low, nb.high
            else:
                b0 = b1 = Edge(1 + 0j, nb)
            if summed == top:
                stack.append((_COMBINE_SUM, key, weight))
                stack.append((_ENTER, a1, b1, at + 1))
                stack.append((_ENTER, a0, b0, at + 1))
            else:
                stack.append((_COMBINE_NODE, key, weight, top))
                stack.append((_ENTER, a1, b1, at))
                stack.append((_ENTER, a0, b0, at))
        elif tag == _COMBINE_FACTOR:
            _, key, weight = frame
            inner = values.pop()
            result = make_edge(2 * inner.weight, inner.node)
            memo[key] = result
            values.append(make_edge(result.weight * weight, result.node))
        elif tag == _COMBINE_SUM:
            _, key, weight = frame
            high = values.pop()
            low = values.pop()
            result = add_apply(manager, low, high)
            memo[key] = result
            values.append(make_edge(result.weight * weight, result.node))
        else:  # _COMBINE_NODE
            _, key, weight, top = frame
            high = values.pop()
            low = values.pop()
            result = manager.make_node(top, low, high)
            memo[key] = result
            values.append(make_edge(result.weight * weight, result.node))
    cache.hits += hits
    cache.misses += misses
    return values[0]


# ----------------------------------------------------------------------
# scalar walk: inner product
# ----------------------------------------------------------------------
def inner_apply(manager: "TDDManager", a: Edge, b: Edge,
                levels: Tuple[int, ...]) -> complex:
    """``sum conj(a) * b`` over the sorted ``levels`` (iterative).

    Every level either operand branches on must be summed.  The walk
    builds no node and no edge: ``a``'s weights are conjugated as they
    are read, a summed level both operands skip contributes a factor 2,
    and the result is a plain ``complex``.  Partial sums of unit-weight
    node pairs are memoised in ``manager.inner_cache`` under
    ``(id(node_a), id(node_b), remaining)``, ``remaining`` being the
    number of summed levels still ahead.  Since every level the pair
    branches on is among them, that count fixes the partial sum for any
    summed set, so the memo is shared by every call.
    """
    if a.weight == 0 or b.weight == 0:
        return 0j
    cache = manager.inner_cache
    memo = cache.table
    hits = misses = 0
    count = len(levels)
    position = {level: i for i, level in enumerate(levels)}
    stack = [(_ENTER, a.weight.conjugate() * b.weight, a.node, b.node,
              count)]
    values = []
    while stack:
        frame = stack.pop()
        if frame[0] == _ENTER:
            _, weight, na, nb, remaining = frame
            top = min(na.level, nb.level)
            if top == TERMINAL_LEVEL:
                values.append(weight * 2 ** remaining)
                continue
            key = (id(na), id(nb), remaining)
            cached = memo.get(key)
            if cached is not None:
                hits += 1
                values.append(weight * cached)
                continue
            misses += 1
            at = position.get(top)
            if at is None:
                raise TDDError("inner product over a level that is not "
                               "summed")
            rest = count - at - 1
            stack.append((_EXIT, key, weight,
                          2 ** (remaining - rest - 1)))
            if na.level == top:
                a0, a1 = na.low, na.high
                wa0, wa1 = a0.weight.conjugate(), a1.weight.conjugate()
                na0, na1 = a0.node, a1.node
            else:
                wa0 = wa1 = 1
                na0 = na1 = na
            if nb.level == top:
                b0, b1 = nb.low, nb.high
                wb0, wb1 = b0.weight, b1.weight
                nb0, nb1 = b0.node, b1.node
            else:
                wb0 = wb1 = 1
                nb0 = nb1 = nb
            # a zero cofactor pushes its 0 now; the EXIT sum is the
            # same in either order
            w1 = wa1 * wb1
            if w1 == 0:
                values.append(0j)
            else:
                stack.append((_ENTER, w1, na1, nb1, rest))
            w0 = wa0 * wb0
            if w0 == 0:
                values.append(0j)
            else:
                stack.append((_ENTER, w0, na0, nb0, rest))
        else:
            _, key, weight, factor = frame
            high = values.pop()
            low = values.pop()
            result = factor * (low + high)
            memo[key] = result
            values.append(weight * result)
    cache.hits += hits
    cache.misses += misses
    return values[0]


# ----------------------------------------------------------------------
# unary rewrite: memoised postorder rebuild
# ----------------------------------------------------------------------
def unary_apply(manager: "TDDManager", edge: Edge,
                rebuild: Callable[[Node, Edge, Edge], Edge],
                shortcut: Optional[Callable[[Node], Optional[Edge]]] = None,
                weight_map: Callable[[complex], complex] = lambda w: w
                ) -> Edge:
    """Rebuild the diagram under ``edge`` bottom-up without recursion.

    ``rebuild(node, low, high)`` combines the already-rewritten child
    edges of an inner node into its replacement edge; ``shortcut(node)``
    may return a replacement immediately (terminal nodes always
    short-circuit to the unit edge); ``weight_map`` transforms every
    edge weight on the way down (e.g. complex conjugation).
    """
    if edge.is_zero:
        return manager.zero_edge()
    memo = {}
    zero = manager.zero_edge()
    make_edge = manager.make_edge

    def rewritten_child(e: Edge) -> Edge:
        if e.is_zero:
            return zero
        inner = memo[id(e.node)]
        return make_edge(weight_map(e.weight) * inner.weight, inner.node)

    stack = [(_ENTER, edge.node)]
    while stack:
        tag, node = stack.pop()
        if tag == _ENTER:
            if id(node) in memo:
                continue
            if node.is_terminal:
                memo[id(node)] = Edge(1 + 0j, node)
                continue
            if shortcut is not None:
                replacement = shortcut(node)
                if replacement is not None:
                    memo[id(node)] = replacement
                    continue
            stack.append((_EXIT, node))
            for child in (node.high, node.low):
                if not child.is_zero and id(child.node) not in memo:
                    stack.append((_ENTER, child.node))
        else:
            memo[id(node)] = rebuild(node, rewritten_child(node.low),
                                     rewritten_child(node.high))
    inner = memo[id(edge.node)]
    return make_edge(weight_map(edge.weight) * inner.weight, inner.node)
