"""Sliced image computation (execution strategies).

The image algorithms all bottom out in transition-relation
contractions ``cont(a, b)`` summed over a set of closed indices.  A
contraction distributes over cofactors of its *summed* indices:

    cont(a, b; S) = sum_{bits} cont(a|_{L=bits}, b|_{L=bits}; S \\ L)

for any subset ``L`` of ``S`` (slicing an operand that does not depend
on an index is the identity).  The sliced strategy exploits this to
decompose one large contraction along the top ``depth`` summed index
levels into up to ``2^depth`` independent cofactor subproblems,
contracts them in-process and recombines the partial images with TDD
addition (:mod:`repro.tdd.arithmetic`).

Two executors implement the strategy switch exposed to
:class:`~repro.image.engine.ImageEngine`, the model checker and the
CLI (``--strategy {monolithic,sliced} --slice-depth D``):

* :class:`MonolithicExecutor` — every contraction is a single kernel
  call.
* :class:`SlicedExecutor` — cofactor decomposition.  Neither executor
  is a safe default for every workload: slicing shrinks the peak
  diagram on contractions whose cost is superlinear in diagram size,
  but keeps more cofactor slices alive on others.

Recombination order is deterministic (lexicographic cofactor order, see
:func:`repro.tdd.slicing.cofactor_assignments`).
"""

from __future__ import annotations

import weakref
from typing import Iterable, List, Optional, Sequence

from repro.errors import ReproError
from repro.indices.index import Index
from repro.tdd import construction as tc
from repro.tdd.manager import TDDManager
from repro.tdd.slicing import cofactor_assignments
from repro.tdd.tdd import TDD
from repro.utils.stats import StatsRecorder

STRATEGIES = ("monolithic", "sliced")

#: default number of top summed levels the sliced strategy fixes
DEFAULT_SLICE_DEPTH = 2


class MonolithicExecutor:
    """The baseline: one kernel call per contraction."""

    strategy = "monolithic"

    def contract(self, a: TDD, b: TDD, sum_over: Iterable[Index],
                 stats: Optional[StatsRecorder] = None) -> TDD:
        return a.contract(b, sum_over)

    def __repr__(self) -> str:
        return "MonolithicExecutor()"


class SlicedExecutor:
    """Cofactor-decomposed contraction.

    Parameters
    ----------
    manager:
        The manager all operand TDDs live in.
    depth:
        Number of top summed index levels to fix (``2^depth``
        cofactors).  ``0`` degrades to the monolithic behaviour.
    """

    strategy = "sliced"

    def __init__(self, manager: TDDManager,
                 depth: int = DEFAULT_SLICE_DEPTH) -> None:
        if depth < 0:
            raise ReproError("slice depth must be non-negative")
        self.manager = manager
        self.depth = depth
        #: operand -> {slice level tuple: [per-assignment slice TDD]};
        #: weak keys let dead states evaporate while the long-lived
        #: operator TDDs keep their slices cached across basis states
        #: and fixpoint iterations
        self._slice_cache: "weakref.WeakKeyDictionary[TDD, dict]" = \
            weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    def contract(self, a: TDD, b: TDD, sum_over: Iterable[Index],
                 stats: Optional[StatsRecorder] = None) -> TDD:
        sum_idx = self.manager.order.sorted(
            {i if isinstance(i, Index) else Index(i) for i in sum_over})
        free_union = set(a.indices) | set(b.indices)
        usable = [i for i in sum_idx if i in free_union]
        if self.depth == 0 or not usable:
            return a.contract(b, sum_over)
        slice_idx = usable[:self.depth]
        remaining = [i for i in sum_idx if i not in set(slice_idx)]
        a_slices = self._slices_of(a, slice_idx)
        b_slices = self._slices_of(b, slice_idx)
        pairs = [(a_s, b_s) for a_s, b_s in zip(a_slices, b_slices)
                 if not (a_s.is_zero or b_s.is_zero)]
        if stats is not None:
            stats.slices += len(pairs)
        parts = [a_s.contract(b_s, remaining) for a_s, b_s in pairs]
        total: Optional[TDD] = None
        for part in parts:
            if stats is not None:
                stats.observe_tdd(part)
            total = part if total is None else total + part
        if stats is not None and len(parts) > 1:
            stats.additions += len(parts) - 1
        if total is None:  # every cofactor vanished: the zero tensor
            total = tc.zero(self.manager,
                            sorted(free_union - set(sum_idx),
                                   key=self.manager.order.level))
        return total

    # ------------------------------------------------------------------
    def _slices_of(self, operand: TDD,
                   slice_idx: Sequence[Index]) -> List[TDD]:
        """Per-assignment slices of ``operand`` (cached, weakly keyed)."""
        levels = tuple(self.manager.level(i) for i in slice_idx)
        per_operand = self._slice_cache.setdefault(operand, {})
        if levels not in per_operand:
            present = [i for i in slice_idx if i in set(operand.indices)]
            slices = []
            for assignment in cofactor_assignments(levels):
                local = {i: assignment[self.manager.level(i)]
                         for i in present}
                slices.append(operand.slice(local) if local else operand)
            per_operand[levels] = slices
        return per_operand[levels]

    def __repr__(self) -> str:
        return f"SlicedExecutor(depth={self.depth})"


def make_executor(strategy: str, manager: TDDManager,
                  slice_depth: int = DEFAULT_SLICE_DEPTH):
    """Instantiate a contraction executor by strategy name."""
    if strategy == "monolithic":
        return MonolithicExecutor()
    if strategy == "sliced":
        return SlicedExecutor(manager, depth=slice_depth)
    raise ReproError(f"unknown strategy {strategy!r}; "
                     f"choose from {STRATEGIES}")
