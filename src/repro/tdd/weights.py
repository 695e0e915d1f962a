"""Complex edge-weight interning.

TDD canonicity requires equal weights to be *identical* floats, so that
they can serve as unique-table keys.  Rounding to a fixed decimal grid
does not give that: a value sitting on a rounding midpoint (the dyadic
2^-13 = 0.0001220703125 at 12 decimals, say) is sent to either
neighbouring grid point by one ulp of float noise, and the two keys
split one node into two.  The split compounds level by level.

Instead, each manager owns a :class:`WeightTable`, the tolerance-based
complex table of Zulehner, Hillmich and Wille ("How to Efficiently
Handle Complex Values? Implementing Decision Diagrams for Quantum
Computing", ICCAD 2019).  Each real component of a normalised weight is
first clamped to zero if below :data:`~repro.config.WEIGHT_EPS`, then
snapped to the representative already stored within
:data:`~repro.config.WEIGHT_TOL`; a component with no representative
that close becomes one.  ``1.0`` is a permanent representative, seeded
at construction and again by :meth:`WeightTable.clear`: the manager
gives the dominant child of every node the weight exactly ``1+0j``
without consulting the table, and a near-1 sibling weight must snap to
that same float.  All weight handling shared by the TDD algorithms
lives here.
"""

from __future__ import annotations

from typing import Dict

from repro.config import WEIGHT_EPS, WEIGHT_TOL


class WeightTable:
    """Representatives of the weight components one manager has seen.

    Components are bucketed by ``floor(x / WEIGHT_TOL)``.  Two
    representatives are always more than ``WEIGHT_TOL`` apart, so a
    bucket holds at most one, and any representative within tolerance
    of ``x`` lives in ``x``'s bucket or one of its two neighbours.

    Snapping is first-come: which float represents a cluster of nearby
    values depends on the order the manager met them, so the table is
    per manager (see :meth:`repro.tdd.manager.TDDManager.reset`).  The
    one exception is ``1.0``, which every table holds from the start.

    A representative never leaves its bucket (until :meth:`clear`), so
    a component that was clamped, or that its own bucket answered, gets
    the same answer for good.  A component snapped to a neighbouring
    bucket's representative does not: a later value can still become
    the representative of its own bucket.  ``_settled`` remembers the
    answer for every weight whose components were all of the first
    kind, so most calls cost one dictionary lookup.
    """

    __slots__ = ("_reps", "_settled")

    def __init__(self) -> None:
        self._reps: Dict[float, float] = {}
        self._settled: Dict[complex, complex] = {}
        self.clear()

    def __len__(self) -> int:
        return len(self._reps)

    def clear(self) -> None:
        """Forget every representative except the permanent ``1.0``."""
        self._reps.clear()
        self._settled.clear()
        self._reps[1.0 // WEIGHT_TOL] = 1.0

    def canonical(self, value: complex) -> complex:
        """Intern both components of a normalised weight.

        Only valid for *normalised* weights (components of magnitude
        <= 1, i.e. the child weights stored inside nodes): the clamp
        threshold is absolute, so applying it to unnormalised outer
        weights would destroy genuinely tiny amplitudes such as the
        2^-n/2 of a wide uniform superposition.

        This method is the one definition of the clamp-and-snap rule.
        Each component is clamped *before* it is snapped, and a clamped
        component is ``+0.0`` also for ``-0.0``, so zero has one key.

        >>> WeightTable().canonical(1e-14 + 1j * (0.5 + 1e-15))
        0.5j
        """
        settled = self._settled.get(value)
        if settled is not None:
            return settled
        reps = self._reps
        parts = []
        settles = True
        for x in (value.real, value.imag):
            if -WEIGHT_EPS < x < WEIGHT_EPS:
                parts.append(0.0)
                continue
            bucket = x // WEIGHT_TOL
            rep = reps.get(bucket)
            if rep is None:
                for neighbour in (reps.get(bucket - 1),
                                  reps.get(bucket + 1)):
                    if (neighbour is not None
                            and abs(neighbour - x) <= WEIGHT_TOL):
                        rep = neighbour
                        settles = False
                        break
                else:
                    rep = reps[bucket] = x
            parts.append(rep)
        result = complex(*parts)
        if settles:
            self._settled[value] = result
        return result
