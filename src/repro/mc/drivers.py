"""The fixpoint schedule for ``S_{k+1} = S_k v T(S_k)``.

The reachability fixpoint has two independent halves: the image
*engine* (how one ``T(S)`` is computed) and the fixpoint *schedule*
(what each round images).  :class:`FrontierDriver` owns the schedule;
:func:`~repro.mc.reachability.reachable_space` is a thin façade that
builds the engine for the configured backend and delegates the loop.

The schedule is the classic frontier-set refinement: each round images
only the directions added by the previous round.  That is sound
because the image distributes over joins (Proposition 1):
``T(S_k) = T(S_{k-1}) v T(F_k)`` where ``F_k`` spans what round ``k``
added, and ``T(S_{k-1})`` is already inside ``S_k``.

One loop serves both backends because the driver touches its engine
only through this protocol (the symbolic
:class:`~repro.image.engine.ImageEngine` and the dense
:class:`~repro.image.dense.DenseImageEngine` both implement it, each
over its own subspace type — anything with ``dimension``):

* ``extend(current, source, stats)`` — ``current v T(source)``; the
  symbolic engine adds every image state straight into a copy of
  ``current`` (one Gram-Schmidt pass per image state, no image
  subspace or projector in between);
* ``new_directions(previous, grown)`` — the span of what a growing
  round added beyond ``previous``.

Garbage collection is not part of the protocol: the symbolic engine
collects after each source state's images (see
:meth:`~repro.image.base.ImageComputerBase.partial_image`), and the
dense engine has nothing to reclaim.
"""

from __future__ import annotations

from repro.utils.stats import StatsRecorder


class FrontierDriver:
    """Image only the directions added by the previous round.

    :meth:`run` owns iteration accounting and convergence detection; it
    mutates the :class:`~repro.mc.reachability.ReachabilityTrace`
    handed in by the façade (subspace, dimensions, iterations,
    converged).  The trace's subspace is in the engine's own
    representation for the length of the run.
    """

    def advance(self, engine, current, frontier, stats: StatsRecorder):
        """One fixpoint round: ``current v T(frontier)``."""
        return engine.extend(current, frontier, stats)

    def run(self, engine, trace, limit: int) -> None:
        """Drive ``trace.subspace`` to the fixpoint (or the limit)."""
        current = frontier = trace.subspace
        for _ in range(limit):
            grown = self.advance(engine, current, frontier, trace.stats)
            trace.iterations += 1
            trace.dimensions.append(grown.dimension)
            trace.subspace = grown
            if grown.dimension == current.dimension:
                break
            frontier = engine.new_directions(current, grown)
            current = grown
        else:
            trace.converged = False
