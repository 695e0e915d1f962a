"""Fixpoint drivers: pluggable schedules for ``S_{k+1} = S_k v T(S_k)``.

The reachability fixpoint has two independent halves: the image
*engine* (how one ``T(S)`` is computed) and the fixpoint *schedule*
(what work each round issues and how partial results recombine).  A
:class:`FixpointDriver` owns the schedule; :func:`~repro.mc.
reachability.reachable_space` is a thin façade that builds the engine
for the configured backend, picks a driver and delegates the loop.

One loop serves both backends because a driver touches its engine only
through this protocol (the symbolic
:class:`~repro.image.engine.ImageEngine` and the dense
:class:`~repro.image.dense.DenseImageEngine` both implement it, each
over its own subspace type — anything with ``join`` and
``dimension``):

* ``extend(current, source, stats)`` — ``current v T(source)``; the
  symbolic engine adds every image state straight into a copy of
  ``current`` (one Gram-Schmidt pass per image state, no image
  subspace or projector in between);
* ``partial_images(source, stats)`` — partial images whose join is
  ``T(source)`` (one per operation, Proposition 1);
* ``new_directions(previous, grown)`` — the span of what a growing
  round added beyond ``previous``.

Garbage collection is not part of the protocol: the symbolic engine
collects after each source state's images (see
:meth:`~repro.image.base.ImageComputerBase.partial_image`), and the
dense engine has nothing to reclaim.

Three drivers ship:

* ``sequential`` — one monolithic ``T(S_k)`` per round added onto the
  accumulator.
* ``opsharded`` — each round takes the engine's partial images and
  recombines the accumulator with them through a balanced *tree-reduce
  of joins*.  On the symbolic engine the partial images run through the
  engine's executor, so the sliced strategy's cofactor decomposition —
  and its worker pool — are shared between slicing and sharding.
* ``frontier`` (the default) — the classic frontier-set refinement:
  each round images only the directions added by the previous round
  (sound because the image distributes over joins, Proposition 1).
  ``sequential`` re-images directions whose images are already in
  ``S_k``; frontier skips that work.

Every driver computes the same reachable subspace (same dimension,
mutual containment); they differ in work granularity and combine
order, so bases — not the spanned spaces — may differ.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import ReproError
from repro.utils.stats import StatsRecorder

#: the available fixpoint schedules
DRIVERS = ("sequential", "opsharded", "frontier")

#: the driver every config/CLI surface defaults to
DEFAULT_DRIVER = "frontier"


def tree_join(subspaces: Sequence):
    """Join subspaces pairwise, halving the list each pass.

    The balanced combine keeps each intermediate join small (
    ``a.join(b)`` runs one modified Gram-Schmidt pass over the basis
    of ``a`` for each basis vector of ``b``, so it costs about
    ``dim a * dim b`` inner products) instead of funnelling every
    partial image through one ever-growing accumulator.
    """
    items: List = list(subspaces)
    if not items:
        raise ReproError("tree_join needs at least one subspace")
    while len(items) > 1:
        paired = []
        for i in range(0, len(items) - 1, 2):
            paired.append(items[i].join(items[i + 1]))
        if len(items) % 2:
            paired.append(items[-1])
        items = paired
    return items[0]


class FixpointDriver:
    """One fixpoint schedule; subclasses implement :meth:`advance`.

    The shared :meth:`run` loop owns iteration accounting and
    convergence detection; it mutates the
    :class:`~repro.mc.reachability.ReachabilityTrace` handed in by the
    façade (subspace, dimensions, iterations, converged).  The trace's
    subspace is in the engine's own representation for the length of
    the run.
    """

    name = "abstract"

    # ------------------------------------------------------------------
    # schedule hooks
    # ------------------------------------------------------------------
    def begin(self, engine, initial) -> None:
        """Reset per-run state (frontier bookkeeping etc.)."""

    def advance(self, engine, current, stats: StatsRecorder):
        """One fixpoint round: return ``current v T(source)``."""
        raise NotImplementedError

    def observe(self, engine, previous, grown) -> None:
        """Called after a growing round, before the next one."""

    # ------------------------------------------------------------------
    def run(self, engine, trace, limit: int) -> None:
        """Drive ``trace.subspace`` to the fixpoint (or the limit)."""
        current = trace.subspace
        self.begin(engine, current)
        for _ in range(limit):
            grown = self.advance(engine, current, trace.stats)
            trace.iterations += 1
            trace.dimensions.append(grown.dimension)
            if grown.dimension == current.dimension:
                trace.subspace = grown
                break
            self.observe(engine, current, grown)
            current = grown
            trace.subspace = grown
        else:
            trace.converged = False

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SequentialDriver(FixpointDriver):
    """The baseline schedule: one monolithic ``T(S_k)`` per round."""

    name = "sequential"

    def advance(self, engine, current, stats: StatsRecorder):
        return engine.extend(current, current, stats)


class OpShardedDriver(FixpointDriver):
    """Partial images per round, recombined by a tree-reduce of joins.

    Tree-reduces ``[S_k, T_1(S_k), T_2(S_k), ...]`` into ``S_{k+1}``,
    where the ``T_i`` are the engine's partial images (one per
    operation).
    """

    name = "opsharded"

    def advance(self, engine, current, stats: StatsRecorder):
        partials = engine.partial_images(current, stats)
        stats.extra["shards"] = (stats.extra.get("shards", 0)
                                 + len(partials))
        return tree_join([current] + partials)


class FrontierDriver(FixpointDriver):
    """Image only the directions added by the previous round."""

    name = "frontier"

    def __init__(self) -> None:
        self._frontier = None

    def begin(self, engine, initial) -> None:
        self._frontier = initial

    def advance(self, engine, current, stats: StatsRecorder):
        return engine.extend(current, self._frontier, stats)

    def observe(self, engine, previous, grown) -> None:
        self._frontier = engine.new_directions(previous, grown)


_DRIVER_CLASSES = {cls.name: cls for cls in
                   (SequentialDriver, OpShardedDriver, FrontierDriver)}


def make_driver(name: str) -> FixpointDriver:
    """Instantiate a fixpoint driver by name."""
    try:
        return _DRIVER_CLASSES[name]()
    except KeyError:
        raise ReproError(f"unknown driver {name!r}; "
                         f"choose from {DRIVERS}") from None

