"""Reachability analysis by repeated image computation.

The reachable space of a QTS is the least subspace containing ``S0``
and closed under every operation:  ``R = lub_k S_k`` with
``S_{k+1} = S_k v T(S_k)``.  Dimensions are integers bounded by
``2^n``, so the iteration terminates as soon as the dimension stops
growing — the standard symbolic-model-checking fixpoint with joins in
place of unions (paper, Sections I and III).

:func:`reachable_space` holds the one fixpoint loop for both backends.
It runs the frontier-set refinement: each round images only the
directions the previous round added.  That is sound because the image
distributes over joins (Proposition 1): ``T(S_k) = T(S_{k-1}) v
T(F_k)`` where ``F_k`` spans what round ``k`` added, and
``T(S_{k-1})`` is already inside ``S_k``.

The loop touches its engine (:func:`~repro.image.engine.make_engine`
picks the symbolic :class:`~repro.image.engine.ImageEngine` or the
dense :class:`~repro.image.dense.DenseImageEngine` from
``config.backend``) only through this protocol, over the engine's own
subspace type (anything with ``dimension``):

* ``lower(subspace)`` / ``lift(subspace, stats)`` — into and out of
  the engine's representation (the identity on the symbolic engine);
* ``extend(current, source, stats)`` — ``current v T(source)``; the
  symbolic engine adds every image state straight into a copy of
  ``current`` (one Gram-Schmidt pass per image state, no image
  subspace or projector in between);
* ``new_directions(previous, grown)`` — the span of what a growing
  round added beyond ``previous``;
* ``certify(current, phases, stats)`` — does ``E r`` lie in
  ``current`` for every Kraus circuit ``E``, where ``r`` is the
  combination of ``current``'s basis with the given unit phases?

The symbolic engine images one Kraus circuit per proportionality
class (:meth:`~repro.systems.qts.QuantumTransitionSystem.
image_circuits`): a circuit that is ``f·E_rep`` with ``|f| <= 1``
spans nothing ``E_rep`` does not, its image is one Gram-Schmidt would
reject, and it leaks out of a space only if ``E_rep`` does, so
ladders, spaces and certificates are those of imaging every circuit.
The dense engine images every Kraus matrix, so it stays an
independent oracle of that reduction.

Garbage collection is not part of the protocol: the symbolic engine
collects after building a Kraus family's operators and after each
source state's images (see
:meth:`~repro.image.base.ImageComputerBase.partial_image`), and the
dense engine has nothing to reclaim.

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
import random
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.image.engine import make_engine
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
    added (see the module docstring).  On the tdd backend each round
    images them through one Kraus circuit per class of proportional
    circuits (:meth:`~repro.systems.qts.QuantumTransitionSystem.
    image_circuits`), whose transition TDDs come from the system's
    operator cache, built once per system and reused across
    iterations; ``stats.extra["kraus_imaged"]`` and
    ``["kraus_circuits"]`` record how many of the system's circuits
    that is.

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

    ``warm_start`` seeds the fixpoint with an extra subspace before the
    first round: its basis is kept as the prefix of the seed, and only
    the vectors of ``initial`` (default ``S0``) are screened against it
    by Gram-Schmidt.  When that adds no dimension and the seed ``W`` is
    not the whole space, a *certificate* replaces the loop.  For each
    Kraus circuit ``E`` the set ``{x in W : E x in W}`` is a subspace
    of ``W``, so one random combination ``r = sum_j c_j w_j`` of the
    basis with ``E r`` in ``W`` shows ``E W <= W`` with probability 1
    (Freivalds' product check, IFIP 1977).  The ``c_j`` are unit
    phases from a fixed-seed generator (:func:`certificate_phases`),
    so runs stay deterministic and a single leaking basis vector is
    not diluted; ``r`` is imaged once per image circuit (a dropped
    ``f·E_rep`` leaks only if ``E_rep`` does), and every image's
    residual against ``W`` must be at most ``GS_EPS`` in absolute
    terms.  A certified seed is returned as is, reading
    ``dimensions=[d, d]`` and one iteration, with
    ``stats.extra["cache_certified"]`` True; a rejected one (recorded
    as False) runs the loop, which is slower and never wrong.  Seeding
    with a previously computed reachable space of the *same* fixpoint
    (see :func:`cached_reachable`) is how a cache hit costs one image
    per image circuit.  The certificate guards closure only: soundness also
    requires the seed to lie inside the true reachable space, which
    the exact keying provides and the checker's witness replay backs
    up (see :meth:`~repro.mc.checker.ModelChecker.check`).

    On the tdd backend the manager's mark-and-sweep runs once the
    operators are built (when the cache lacked them) and after each
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
    start = initial if initial is not None else qts.initial
    if start.dimension == 0:
        raise ReproError("reachability from the zero subspace is trivial; "
                         "set an initial space first")
    certifiable = False
    if warm_start is not None:
        start = warm_start.join(start)
        certifiable = (start.dimension == warm_start.dimension
                       and not start.is_full())
    trace = ReachabilityTrace(subspace=start,
                              dimensions=[start.dimension],
                              direction=config.direction,
                              bound=config.bound)
    # the run holds its starting basis: observing it keeps max_nodes
    # the largest TDD held even when a saturated warm start images
    # nothing
    for vector in start.basis:
        trace.stats.observe_tdd(vector)
    extra = trace.stats.extra
    if config.backend != "tdd":
        extra["backend"] = config.backend
    if config.direction != "forward":
        extra["direction"] = config.direction
    limit = max_iterations if max_iterations > 0 else 2 ** qts.num_qubits
    if config.bound > 0:
        limit = min(limit, config.bound)
    # the loop runs in the engine's own representation
    frontier = current = engine.lower(start)
    manager = qts.manager
    baseline = manager.cache_counters()
    watch = Stopwatch().start()
    if certifiable:
        extra["cache_certified"] = engine.certify(
            current, certificate_phases(current.dimension), trace.stats)
    if extra.get("cache_certified"):
        grown = current
        trace.iterations = 1
        trace.dimensions.append(grown.dimension)
    else:
        for _ in range(limit):
            grown = engine.extend(current, frontier, trace.stats)
            trace.iterations += 1
            trace.dimensions.append(grown.dimension)
            if grown.dimension == current.dimension:
                break
            frontier = engine.new_directions(current, grown)
            current = grown
        else:
            trace.converged = False
    trace.subspace = engine.lift(grown, trace.stats)
    trace.stats.seconds = watch.stop()
    manager.collect()
    trace.stats.record_manager(manager, baseline)
    return trace


#: the seed of :func:`certificate_phases`
CERTIFICATE_SEED = 1977


def certificate_phases(count: int) -> np.ndarray:
    """``count`` random unit phases ``e^{i theta_j}``, the same on
    every call: the coefficients of the warm-start certificate.

    Drawn from the standard library's seeded Mersenne Twister, which
    every process has loaded already; ``numpy.random`` would add about
    2 MB of resident memory to a run that uses nothing else of it.
    """
    draw = random.Random(CERTIFICATE_SEED).random
    return np.exp(2j * np.pi * np.array([draw() for _ in range(count)]))


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
                     max_iterations: int = 0,
                     vouch: Optional[Callable[[ReachabilityTrace], bool]]
                     = None) -> ReachabilityTrace:
    """One fixpoint from ``seed``, warm-started through ``cache``.

    ``run(warm)`` computes the fixpoint, joining ``warm`` (a cached
    reachable space, or ``None``) into its seed.  ``cache`` is a
    :class:`ReachabilityCache`, a :class:`~repro.store.ResultStore` or
    ``None``.  Only unbounded, untruncated fixpoints consult it: a
    bounded query must never be served the saturated space (it would
    overshoot).  ``vouch(trace)``, when given, judges a warm-served
    trace: False discards the entry (``cache.discard``), records
    ``cache_discarded`` and runs the fixpoint cold, as on a miss.  The
    trace records ``cache_warm``, plus ``cache_source`` on a hit or
    ``cache_stored`` on a miss.
    """
    if cache is None or bound != 0 or max_iterations != 0:
        return run(None)
    warm = cache.lookup(qts, seed, direction, 0)
    trace = run(warm)
    if warm is not None and vouch is not None and not vouch(trace):
        cache.discard(qts, seed, direction, 0)
        warm = None
        trace = run(None)
        trace.stats.extra["cache_discarded"] = True
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
    never consumes an unbounded entry either).  A hit re-interns the
    stored vectors and adopts them as the basis after a Gram-matrix
    check (:meth:`~repro.subspace.subspace.StateSpace.adopt`), so a
    healthy entry runs no Gram-Schmidt step.  The caller joins the
    warm space into the fixpoint seed (see :func:`cached_reachable`);
    :func:`reachable_space` then certifies the seed closed with one
    image per image circuit, or runs the fixpoint loop from it when the
    certificate fails, so a cold cache is merely slow.  An entry that
    is closed but too large passes the certificate; the checker catches
    it when a verdict's witness does not replay from ``S0`` and calls
    :meth:`discard` before rerunning cold.

    The disk-backed :class:`~repro.store.ResultStore` implements the
    same ``lookup``/``store``/``discard`` protocol with the same key and admission
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
        """The cached reachable space, re-interned into ``qts``'s manager
        and adopted as is when its basis is still orthonormal."""
        key, _, _ = fixpoint_key(qts, initial, direction, bound)
        payloads = self._entries.get(key)
        if payloads is None:
            self.misses += 1
            return None
        self.hits += 1
        vectors = [from_dict(qts.manager, data) for data in payloads]
        return qts.space.adopt(vectors)

    def store(self, qts: QuantumTransitionSystem, initial: Subspace,
              direction: str, bound: int, trace: ReachabilityTrace) -> bool:
        """Record a finished fixpoint; True when it was admitted."""
        if not admissible(trace, bound):
            return False
        key, _, _ = fixpoint_key(qts, initial, direction, bound)
        self._entries[key] = [to_dict(vector)
                              for vector in trace.subspace.basis]
        return True

    def discard(self, qts: QuantumTransitionSystem, initial: Subspace,
                direction: str = "forward", bound: int = 0) -> None:
        """Forget the entry under this key (a no-op when absent)."""
        key, _, _ = fixpoint_key(qts, initial, direction, bound)
        self._entries.pop(key, None)

    def __repr__(self) -> str:
        return (f"ReachabilityCache(entries={len(self._entries)}, "
                f"hits={self.hits}, misses={self.misses})")
