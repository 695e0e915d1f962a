"""Reachability analysis by repeated image computation.

The reachable space of a QTS is the least subspace containing ``S0``
and closed under every operation:  ``R = lub_k S_k`` with
``S_{k+1} = S_k v T(S_k)``.  Dimensions are integers bounded by
``2^n``, so the iteration terminates as soon as the dimension stops
growing — the standard symbolic-model-checking fixpoint with joins in
place of unions (paper, Sections I and III).

:func:`reachable_space` is a thin façade over both backends: it
builds the engine for ``config.backend`` (:func:`~repro.image.engine.
make_engine`) and delegates the loop to the frontier schedule
(:class:`~repro.mc.drivers.FrontierDriver`), keeping only the
bookkeeping (trace, stopwatch, GC baseline) here.
:class:`ReachabilityCache` lets batch runners warm-start a fixpoint
from a previously computed reachable space when only the image method
changed — the reachable subspace itself is method-independent.
:func:`fixpoint_key`, :func:`admissible` and :func:`cached_reachable`
are the one key, the one admission rule and the one lookup-run-store
sequence shared by that cache, the disk-backed
:class:`~repro.store.ResultStore`, the checker and the CLI.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.image.engine import make_engine
from repro.mc.drivers import FrontierDriver
from repro.subspace.subspace import Subspace
from repro.systems.qts import QuantumTransitionSystem
from repro.tdd.io import from_dict, payload_digest, to_dict
from repro.utils.stats import StatsRecorder
from repro.utils.timing import Stopwatch


@dataclass
class ReachabilityTrace:
    """The fixpoint iteration record."""

    subspace: Subspace
    dimensions: List[int] = field(default_factory=list)
    iterations: int = 0
    stats: StatsRecorder = field(default_factory=StatsRecorder)
    converged: bool = True
    direction: str = "forward"
    bound: int = 0

    @property
    def dimension(self) -> int:
        return self.subspace.dimension

    @property
    def dimensions_delta(self) -> List[int]:
        """Per-round dimension growth (one entry per iteration)."""
        return [b - a for a, b in zip(self.dimensions,
                                      self.dimensions[1:])]

    def __repr__(self) -> str:
        return (f"ReachabilityTrace(dim={self.dimension}, "
                f"iterations={self.iterations}, "
                f"converged={self.converged}, "
                f"direction={self.direction!r})")


def reachable_space(qts: QuantumTransitionSystem, config,
                    *, initial: Optional[Subspace] = None,
                    max_iterations: int = 0,
                    warm_start: Optional[Subspace] = None
                    ) -> ReachabilityTrace:
    """Compute the reachable subspace of ``qts`` under ``config``.

    ``config`` is a :class:`~repro.mc.config.CheckerConfig` for either
    backend.  Each round images only the directions the previous round
    added (see :mod:`repro.mc.drivers`).  On the tdd backend the
    transition TDDs come from the system's operator cache, built once
    per system and reused across iterations.

    ``direction="backward"`` runs the same fixpoint against the
    *adjoint* transition relation (cached Kraus-dagger operator TDDs,
    see :meth:`~repro.systems.qts.QuantumTransitionSystem.adjoint`):
    the result is the space of states that can *reach* ``initial``,
    the standard symbolic-model-checking complement of forward
    reachability.  All four methods apply unchanged.

    ``bound`` is the depth limit of bounded analysis: a positive value
    stops after at most ``bound`` image steps (so the result is the
    space reachable within ``bound`` transitions) and takes precedence
    over ``max_iterations`` (0 = until the dimension saturates, which
    needs at most ``2^n`` rounds).

    ``warm_start`` seeds the fixpoint with an extra subspace joined
    onto ``initial`` (default ``S0``) before the first round.  Seeding
    with a previously computed reachable space of the *same* fixpoint
    (see :func:`cached_reachable`) collapses the iteration ladder to a
    single confirming round; soundness requires the seed to lie inside
    the true reachable space, which the exact keying guarantees.

    On the tdd backend the manager's mark-and-sweep runs after each
    source state's images (see
    :meth:`~repro.image.base.ImageComputerBase.partial_image`): the
    accumulated subspace, the frontier and the system's cached
    operator TDDs stay pinned (they are live handles), while the
    intermediate diagrams of the finished state are reclaimed — this is
    what keeps the live-node population flat over long fixpoints.  One
    more collection runs after the fixpoint, so the trace's
    ``live_nodes`` counts only what survives it.  The trace stats
    report the cache hit/miss deltas and GC activity of the whole run.
    """
    engine = make_engine(qts, config)
    current = initial if initial is not None else qts.initial
    if current.dimension == 0:
        raise ReproError("reachability from the zero subspace is trivial; "
                         "set an initial space first")
    if warm_start is not None:
        current = current.join(warm_start)
    trace = ReachabilityTrace(subspace=engine.lower(current),
                              dimensions=[current.dimension],
                              direction=config.direction,
                              bound=config.bound)
    # the run holds its starting basis: observing it keeps max_nodes
    # the largest TDD held even when a saturated warm start images
    # nothing
    for vector in current.basis:
        trace.stats.observe_tdd(vector)
    extra = trace.stats.extra
    if config.backend != "tdd":
        extra["backend"] = config.backend
    if config.direction != "forward":
        extra["direction"] = config.direction
    limit = max_iterations if max_iterations > 0 else 2 ** qts.num_qubits
    if config.bound > 0:
        limit = min(limit, config.bound)
    manager = qts.manager
    baseline = manager.cache_counters()
    watch = Stopwatch().start()
    FrontierDriver().run(engine, trace, limit)
    trace.subspace = engine.lift(trace.subspace, trace.stats)
    trace.stats.seconds = watch.stop()
    manager.collect()
    trace.stats.record_manager(manager, baseline)
    return trace


# ----------------------------------------------------------------------
# warm-start cache
# ----------------------------------------------------------------------
#: per-system memo: the operation list is fixed at construction, so
#: the hash over every gate matrix only ever needs computing once
_SYSTEM_FINGERPRINTS: "weakref.WeakKeyDictionary" = \
    weakref.WeakKeyDictionary()


def system_fingerprint(qts: QuantumTransitionSystem) -> str:
    """A content hash of the transition relation.

    Two QTS instances with the same qubit count and the same operation
    list (symbols, Kraus circuit gate sequences, gate matrices) have
    the same fingerprint even when they live in different managers —
    the property the :class:`ReachabilityCache` keys on.  Memoised per
    instance (a cache lookup-then-store pair must not hash every gate
    matrix twice); the memo is safe because a QTS's operations are
    immutable after construction.
    """
    cached = _SYSTEM_FINGERPRINTS.get(qts)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(str(qts.num_qubits).encode())
    for op in qts.operations:
        digest.update(op.symbol.encode())
        for circuit in op.kraus_circuits:
            for gate in circuit.gates:
                digest.update(gate.name.encode())
                digest.update(repr((gate.targets, gate.controls,
                                    gate.control_states)).encode())
                digest.update(np.ascontiguousarray(gate.matrix).tobytes())
    fingerprint = digest.hexdigest()
    _SYSTEM_FINGERPRINTS[qts] = fingerprint
    return fingerprint


def subspace_fingerprint(subspace: Subspace) -> str:
    """A content hash of a subspace's orthonormal basis."""
    return payload_digest([to_dict(vector) for vector in subspace.basis])


def entry_key(system: str, initial: str, direction: str,
              bound: int) -> str:
    """The content address of one fixpoint result."""
    text = f"{system}/{initial}/{direction}/{int(bound)}"
    return hashlib.sha256(text.encode()).hexdigest()


def fixpoint_key(qts: QuantumTransitionSystem, initial: Subspace,
                 direction: str, bound: int) -> Tuple[str, str, str]:
    """``(content address, system fingerprint, seed fingerprint)``.

    The one key of every fixpoint cache: the fixpoint result depends on
    the transition relation, the initial subspace, the analysis
    direction and the depth bound — not on the image method or the
    backend.
    """
    system = system_fingerprint(qts)
    seed = subspace_fingerprint(initial)
    return entry_key(system, seed, direction, bound), system, seed


def admissible(trace: ReachabilityTrace, bound: int) -> bool:
    """May ``trace`` be cached under a key with depth ``bound``?

    The one admission rule: only *converged*, *unbounded* fixpoints are
    sound warm-start seeds.  It judges the trace itself
    (``trace.bound``/``trace.converged``), not just the caller's
    ``bound``: a bounded reachable set is not closed under the
    transition relation, so storing one under an unbounded key would
    later seed an unbounded fixpoint with unreachable directions — a
    wrong answer, not just a slow one.
    """
    return trace.converged and bound == 0 and trace.bound == 0


def cached_reachable(cache, qts: QuantumTransitionSystem, seed: Subspace,
                     direction: str,
                     run: Callable[[Optional[Subspace]], ReachabilityTrace],
                     *, bound: int = 0,
                     max_iterations: int = 0) -> ReachabilityTrace:
    """One fixpoint from ``seed``, warm-started through ``cache``.

    ``run(warm)`` computes the fixpoint, joining ``warm`` (a cached
    reachable space, or ``None``) into its seed.  ``cache`` is a
    :class:`ReachabilityCache`, a :class:`~repro.store.ResultStore` or
    ``None``.  Only unbounded, untruncated fixpoints consult it: a
    bounded query must never be served the saturated space (it would
    overshoot).  The trace records ``cache_warm``, plus
    ``cache_source`` on a hit or ``cache_stored`` on a miss.
    """
    if cache is None or bound != 0 or max_iterations != 0:
        return run(None)
    warm = cache.lookup(qts, seed, direction, 0)
    trace = run(warm)
    extra = trace.stats.extra
    extra["cache_warm"] = warm is not None
    if warm is not None:
        # "memory" (ReachabilityCache) or "disk" (ResultStore) — the
        # sweep runner's store_hit column keys on this
        extra["cache_source"] = cache.source
    else:
        extra["cache_stored"] = cache.store(qts, seed, direction, 0, trace)
    return trace


class ReachabilityCache:
    """Reachable subspaces keyed by what actually determines them.

    Keyed by :func:`fixpoint_key`, so the result of one image method
    warm-starts every other.  The cache
    stores basis vectors through the :mod:`repro.tdd.io` dict codec, so
    an entry computed in one manager warm-starts a run whose QTS was
    rebuilt from scratch (the batch-sweep shape: every run constructs
    its own system).

    Entries are only stored when :func:`admissible` and served only on
    an exact key match (the key includes the bound, so a bounded query
    never consumes an unbounded entry either).  A warm hit is a
    subspace that the caller joins into the fixpoint seed (see
    :func:`cached_reachable`), so a cold cache is merely slow, never
    wrong.

    The disk-backed :class:`~repro.store.ResultStore` implements the
    same ``lookup``/``store`` protocol with the same key and admission
    rule; ``source`` tells warm rows apart (``"memory"`` vs
    ``"disk"``).
    """

    source = "memory"

    def __init__(self) -> None:
        self._entries: Dict[str, List[dict]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def lookup(self, qts: QuantumTransitionSystem, initial: Subspace,
               direction: str = "forward",
               bound: int = 0) -> Optional[Subspace]:
        """The cached reachable space, re-interned into ``qts``'s manager."""
        key, _, _ = fixpoint_key(qts, initial, direction, bound)
        payloads = self._entries.get(key)
        if payloads is None:
            self.misses += 1
            return None
        self.hits += 1
        vectors = [from_dict(qts.manager, data) for data in payloads]
        return qts.space.span(vectors)

    def store(self, qts: QuantumTransitionSystem, initial: Subspace,
              direction: str, bound: int, trace: ReachabilityTrace) -> bool:
        """Record a finished fixpoint; True when it was admitted."""
        if not admissible(trace, bound):
            return False
        key, _, _ = fixpoint_key(qts, initial, direction, bound)
        self._entries[key] = [to_dict(vector)
                              for vector in trace.subspace.basis]
        return True

    def __repr__(self) -> str:
        return (f"ReachabilityCache(entries={len(self._entries)}, "
                f"hits={self.hits}, misses={self.misses})")
