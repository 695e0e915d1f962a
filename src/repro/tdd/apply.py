"""The iterative apply engine: explicit-work-stack TDD traversals.

Every structural TDD algorithm runs on explicit heap-allocated stacks,
so the whole kernel works on diagrams of any depth under the
interpreter's *default* recursion limit (benchmark circuits register
thousands of levels):

* a **binary apply** machine (:func:`add_apply`, :func:`contract_apply`)
  that simulates the recursion with ENTER/EXIT frames on a work stack
  and a value stack, memoised in the manager's
  :class:`~repro.tdd.cache.OperationCache` tables.  It is one loop:
  a contraction's sum over a summed level runs as addition frames on
  the contraction's own stack, and :func:`add_apply` starts the same
  loop on an addition frame;
* an **n-ary apply** (:func:`combine_apply`) — the same frames over a
  tuple of operands, forming a linear combination ``sum_i c_i e_i`` in
  one walk;
* a **scalar walk** (:func:`inner_apply`) — the same frames over a node
  pair, returning ``<a|b>`` as a ``complex`` without building a node;
* a **unary rewrite** machine (:func:`unary_apply`) — a memoised
  postorder rebuild used by conjugation, renaming and slicing.

Every edge the kernels handle is a plain ``(weight, node)`` tuple:
node children, stack frames, cofactors, memo values and results (see
:mod:`repro.tdd.node`).  An :class:`~repro.tdd.node.Edge` argument,
such as a handle's root, is a tuple too and is read the same way.
Nodes are made by :meth:`~repro.tdd.manager.TDDManager.make_pair`, and
a zero result is ``(0j, terminal)``, built inline: the exact-zero
weight always points at the terminal, also when a product of nonzero
weights underflows.

The memoised kernels read and write their tables' ``table`` dicts
directly and add their hit/miss counts once per call.  Memo keys are
flat tuples of integer node keys (:class:`~repro.tdd.node.Node`) and
numbers: ``(key_lo, w_lo, key_hi, w_hi)`` for addition,
``(key_a, key_b, suffix_id)`` for contraction and
``(key_a, key_b, remaining)`` for the inner product; the n-ary walk
keys a frame by its ``(weight, node)`` operands and empties its table
when the call ends.  A node key is never reused, but a memo value can
name a node that a collection reclaimed, which is why
:meth:`~repro.tdd.manager.TDDManager.collect` empties every table.
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING, Tuple

from repro.errors import TDDError
from repro.tdd.node import TERMINAL_LEVEL, Node, Pair

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tdd.manager import TDDManager

#: work-stack frame tags of the walks with one frame kind
_ENTER = 0
_EXIT = 1
#: frame tags of the binary apply machine (see :func:`_binary_apply`)
_ADD = 0
_ADD_NODE = 1
_CONTRACT = 2
_COMBINE_NODE = 3
_COMBINE_SUM = 4
_COMBINE_FACTOR = 5
_SUMMED = 6


# ----------------------------------------------------------------------
# binary apply: addition and contraction
# ----------------------------------------------------------------------
def add_apply(manager: "TDDManager", a: Pair, b: Pair) -> Pair:
    """Pointwise sum of two edges (iterative, memoised).

    The memo key is ``(key_lo, w_lo, key_hi, w_hi)``, the two operands
    ordered by node key (addition commutes; equal nodes never reach
    the memo).  Weights enter the key at full precision: rounding them
    could alias two different sums onto one entry.
    """
    (wa, na), (wb, nb) = a, b
    return _binary_apply(manager, (_ADD, wa, na, wb, nb), ())


def contract_apply(manager: "TDDManager", a: Pair, b: Pair,
                   levels: Tuple[int, ...]) -> Pair:
    """Contract two edges over the sorted ``levels`` (iterative).

    Frames carry an offset into ``levels`` rather than the remaining
    tuple.  Weights are factored out on entry so the memo key is
    ``(key_a, key_b, suffix_id)``: the unit-weight node pair, ordered
    by node key, and the manager-wide id of the summed levels still
    ahead (:meth:`~repro.tdd.manager.TDDManager.suffix_ids`).  The
    combine frame re-applies the factored weight.  A product of
    nonzero weights that underflows to 0 gives the zero edge.  The sum
    over a summed level is an addition run on the same work stack, so
    it shares :func:`add_apply`'s memo and counters.
    """
    return _binary_apply(manager, (_CONTRACT, a, b, 0), levels)


def _binary_apply(manager: "TDDManager", frame: tuple,
                  levels: Tuple[int, ...]) -> Pair:
    """Run the binary apply machine from ``frame`` to its one result.

    An addition frame carries both operands flat,
    ``(_ADD, wa, na, wb, nb)``, so a cofactor is two stack slots rather
    than a pair of its own; a contraction frame is
    ``(_CONTRACT, a, b, at)``, ``at`` being the offset of the next
    summed level in ``levels``.  A contraction that sums a level pushes
    the addition of its two halves as an addition frame under a
    ``_SUMMED`` frame that stores the sum as the contraction's memo
    entry, so every addition, whether started by :func:`add_apply` or
    inside a contraction, runs the one addition frame body and counts
    into ``manager.add_cache``.
    """
    add_cache = manager.add_cache
    add_memo = add_cache.table
    cont_cache = manager.cont_cache
    cont_memo = cont_cache.table
    make_pair = manager.make_pair
    terminal = manager.terminal
    zero = (0j, terminal)
    suffix = manager.suffix_ids(levels)
    count = len(levels)
    # the sentinel past the last summed level compares above every
    # non-terminal level, so no frame needs a bounds check
    levels = levels + (TERMINAL_LEVEL,)
    add_hits = add_misses = cont_hits = cont_misses = 0
    stack = [frame]
    values = []
    while stack:
        frame = stack.pop()
        tag = frame[0]
        if tag == _CONTRACT:
            _, (wa, na), (wb, nb), at = frame
            if wa == 0 or wb == 0:
                values.append(zero)
                continue
            weight = wa * wb
            la, lb = na.level, nb.level
            top = la if la < lb else lb
            if top == TERMINAL_LEVEL:
                weight = weight * (2 ** (count - at))
                values.append((weight, terminal) if weight != 0 else zero)
                continue
            ka, kb = na.key, nb.key
            key = ((ka, kb, suffix[at]) if ka <= kb
                   else (kb, ka, suffix[at]))
            cached = cont_memo.get(key)
            if cached is not None:
                cont_hits += 1
                cached_weight, node = cached
                weight = cached_weight * weight
                values.append((weight, node) if weight != 0 else zero)
                continue
            cont_misses += 1
            summed = levels[at]
            if summed < top:
                # Neither operand depends on this summed index: factor 2.
                stack.append((_COMBINE_FACTOR, key, weight, top))
                stack.append((_CONTRACT, (1 + 0j, na), (1 + 0j, nb), at + 1))
                continue
            # cofactors of the unit-weight operands on ``top``
            if la == top:
                a0, a1 = na.low, na.high
            else:
                a0 = a1 = (1 + 0j, na)
            if lb == top:
                b0, b1 = nb.low, nb.high
            else:
                b0 = b1 = (1 + 0j, nb)
            if summed == top:
                stack.append((_COMBINE_SUM, key, weight, top))
                stack.append((_CONTRACT, a1, b1, at + 1))
                stack.append((_CONTRACT, a0, b0, at + 1))
            else:
                stack.append((_COMBINE_NODE, key, weight, top))
                stack.append((_CONTRACT, a1, b1, at))
                stack.append((_CONTRACT, a0, b0, at))
        elif tag == _ADD:
            _, wa, na, wb, nb = frame
            if wa == 0:
                values.append((wb, nb))
                continue
            if wb == 0:
                values.append((wa, na))
                continue
            if na is nb:
                weight = wa + wb
                values.append((weight, na) if weight != 0 else zero)
                continue
            ka, kb = na.key, nb.key
            if ka < kb:
                key = (ka, wa, kb, wb)
            else:
                key = (kb, wb, ka, wa)
            cached = add_memo.get(key)
            if cached is not None:
                add_hits += 1
                values.append(cached)
                continue
            add_misses += 1
            # the cofactors on the top level (a zero child has the
            # terminal as its node, so its cofactor is a zero edge)
            la, lb = na.level, nb.level
            level = la if la < lb else lb
            if la == level:
                (wa0, na0), (wa1, na1) = na.low, na.high
                wa0, wa1 = wa * wa0, wa * wa1
            else:
                wa0 = wa1 = wa
                na0 = na1 = na
            if lb == level:
                (wb0, nb0), (wb1, nb1) = nb.low, nb.high
                wb0, wb1 = wb * wb0, wb * wb1
            else:
                wb0 = wb1 = wb
                nb0 = nb1 = nb
            stack.append((_ADD_NODE, key, level))
            stack.append((_ADD, wa1, na1, wb1, nb1))
            stack.append((_ADD, wa0, na0, wb0, nb0))
        elif tag == _ADD_NODE:
            _, key, level = frame
            high = values.pop()
            low = values.pop()
            result = make_pair(level, low, high)
            add_memo[key] = result
            values.append(result)
        else:
            _, key, weight, top = frame
            if tag == _COMBINE_NODE:
                high = values.pop()
                low = values.pop()
                result = make_pair(top, low, high)
            elif tag == _COMBINE_SUM:
                (wb, nb) = values.pop()
                (wa, na) = values.pop()
                stack.append((_SUMMED, key, weight, top))
                stack.append((_ADD, wa, na, wb, nb))
                continue
            elif tag == _SUMMED:
                result = values.pop()
            else:
                inner, node = values.pop()
                inner = 2 * inner
                result = (inner, node) if inner != 0 else zero
            cont_memo[key] = result
            inner, node = result
            weight = inner * weight
            values.append((weight, node) if weight != 0 else zero)
    add_cache.hits += add_hits
    add_cache.misses += add_misses
    cont_cache.hits += cont_hits
    cont_cache.misses += cont_misses
    return values[0]


# ----------------------------------------------------------------------
# n-ary apply: linear combination
# ----------------------------------------------------------------------
def _operands(merged: dict) -> tuple:
    """The ``(weight, node)`` operands of a frame from ``node -> weight``,
    in insertion order, without the weights that summed to zero."""
    return tuple((weight, node) for node, weight in merged.items()
                 if weight != 0)


def combine_apply(manager: "TDDManager", terms) -> Pair:
    """``sum_i c_i e_i`` for ``(c_i, e_i)`` terms, in one walk.

    The walk descends every operand one level at a time, merges the
    operands that meet on one node and builds each result node once,
    with one :meth:`~repro.tdd.manager.TDDManager.make_pair`, where a
    chain of binary :func:`add_apply` calls builds every partial sum.
    A frame is the tuple of its ``(weight, node)`` operands in term
    order, and it is its own memo key: node identity and weights at
    full precision, as in :func:`add_apply`.  A frame of one operand
    is its own result.  Those keys rarely recur across calls, so
    ``manager.combine_cache`` is emptied at the end of each call and
    keeps only the hit/miss counts.
    """
    cache = manager.combine_cache
    memo = cache.table
    make_pair = manager.make_pair
    zero = (0j, manager.terminal)
    hits = misses = 0
    merged = {}
    for coefficient, (weight, node) in terms:
        weight = coefficient * weight
        if weight != 0:
            merged[node] = merged.get(node, 0) + weight
    stack = [(_ENTER, _operands(merged))]
    values = []
    while stack:
        frame = stack.pop()
        if frame[0] == _ENTER:
            operands = frame[1]
            if len(operands) < 2:
                values.append(operands[0] if operands else zero)
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
                    (low, low_node), (high, high_node) = node.low, node.high
                    if low != 0:
                        lows[low_node] = (lows.get(low_node, 0)
                                          + weight * low)
                    if high != 0:
                        highs[high_node] = (highs.get(high_node, 0)
                                            + weight * high)
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
            result = make_pair(level, low, high)
            memo[key] = result
            values.append(result)
    memo.clear()
    cache.hits += hits
    cache.misses += misses
    return values[0]


# ----------------------------------------------------------------------
# scalar walk: inner product
# ----------------------------------------------------------------------
def inner_apply(manager: "TDDManager", a: Pair, b: Pair,
                levels: Tuple[int, ...]) -> complex:
    """``sum conj(a) * b`` over the sorted ``levels`` (iterative).

    Every level either operand branches on must be summed.  The walk
    builds no node and no edge: ``a``'s weights are conjugated as they
    are read, a summed level both operands skip contributes a factor 2,
    and the result is a plain ``complex``.  Partial sums of unit-weight
    node pairs are memoised in ``manager.inner_cache`` under
    ``(node_a.key, node_b.key, remaining)``, ``remaining`` being the
    number of summed levels still ahead.  Since every level the pair
    branches on is among them, that count fixes the partial sum for any
    summed set, so the memo is shared by every call.
    """
    (wa, na), (wb, nb) = a, b
    if wa == 0 or wb == 0:
        return 0j
    cache = manager.inner_cache
    memo = cache.table
    hits = misses = 0
    count = len(levels)
    position = {level: i for i, level in enumerate(levels)}
    stack = [(_ENTER, wa.conjugate() * wb, na, nb, count)]
    values = []
    while stack:
        frame = stack.pop()
        if frame[0] == _ENTER:
            _, weight, na, nb, remaining = frame
            la, lb = na.level, nb.level
            top = la if la < lb else lb
            if top == TERMINAL_LEVEL:
                values.append(weight * 2 ** remaining)
                continue
            key = (na.key, nb.key, remaining)
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
            if la == top:
                (wa0, na0), (wa1, na1) = na.low, na.high
                wa0, wa1 = wa0.conjugate(), wa1.conjugate()
            else:
                wa0 = wa1 = 1
                na0 = na1 = na
            if lb == top:
                (wb0, nb0), (wb1, nb1) = nb.low, nb.high
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
def unary_apply(manager: "TDDManager", edge: Pair,
                rebuild: Callable[[Node, Pair, Pair], Pair],
                shortcut: Optional[Callable[[Node], Optional[Pair]]] = None,
                weight_map: Callable[[complex], complex] = lambda w: w
                ) -> Pair:
    """Rebuild the diagram under ``edge`` bottom-up without recursion.

    ``rebuild(node, low, high)`` combines the already-rewritten child
    pairs of an inner node into its replacement pair; ``shortcut(node)``
    may return a replacement immediately (terminal nodes always
    short-circuit to the unit edge); ``weight_map`` transforms every
    edge weight on the way down (e.g. complex conjugation).
    """
    zero = (0j, manager.terminal)
    weight, root = edge
    if weight == 0:
        return zero
    memo = {}

    def rewritten(weight: complex, node: Node) -> Pair:
        if weight == 0:
            return zero
        inner, replacement = memo[node.key]
        weight = weight_map(weight) * inner
        return (weight, replacement) if weight != 0 else zero

    stack = [(_ENTER, root)]
    while stack:
        tag, node = stack.pop()
        if tag == _ENTER:
            if node.key in memo:
                continue
            if node.is_terminal:
                memo[node.key] = (1 + 0j, node)
                continue
            if shortcut is not None:
                replacement = shortcut(node)
                if replacement is not None:
                    memo[node.key] = replacement
                    continue
            stack.append((_EXIT, node))
            for child_weight, child in (node.high, node.low):
                if child_weight != 0 and child.key not in memo:
                    stack.append((_ENTER, child))
        else:
            memo[node.key] = rebuild(node, rewritten(*node.low),
                                     rewritten(*node.high))
    return rewritten(weight, root)
