"""The :class:`ModelChecker` facade and the uniform :class:`CheckResult`.

A checker bundles a QTS with one validated
:class:`~repro.mc.config.CheckerConfig` — the single source of truth
for engine configuration (backend, image method, per-method
parameters, direction, bound) — and exposes **one verb for every
specification**: :meth:`ModelChecker.check` takes a temporal spec
(text like ``"AG (inv & ~bad)"`` or an AST from
:mod:`repro.mc.logic`) and returns a :class:`CheckResult` carrying the
verdict, the violating/witness subspace and its dimension, the
reachability trace, the kernel cost profile and the config echo — the
same shape on the symbolic TDD backend and the dense statevector
reference::

    config = CheckerConfig(method="contraction",
                           method_params={"k1": 4, "k2": 4})
    result = ModelChecker(qts, config).check("AG inv")
    assert result.holds

The fine-grained entry points (:meth:`image`, :meth:`reachable`,
:meth:`check_invariant`, :meth:`check_image_equals`) call the engine
directly with the checker's config —
:func:`~repro.image.engine.compute_image` for one image,
:func:`~repro.mc.reachability.reachable_space` for a fixpoint — and
:func:`cross_validate` runs one computation on both backends and
compares the outcomes.

See ``examples/quickstart.py`` and ``examples/reachability_grover.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.config import CHECK_EPS
from repro.errors import ConfigError, SpecError
from repro.image.base import ImageResult
from repro.image.engine import compute_image
from repro.mc.config import CheckerConfig
from repro.mc.logic import Always, Atomic, Proposition, TemporalSpec
from repro.mc.reachability import (ReachabilityCache, ReachabilityTrace,
                                   cached_reachable, reachable_space)
from repro.mc.witness import WitnessTrace, extract_witness_trace
from repro.subspace.subspace import Subspace
from repro.systems.qts import QuantumTransitionSystem
from repro.utils.stats import StatsRecorder


@dataclass
class CheckResult:
    """The uniform outcome of :meth:`ModelChecker.check`.

    One shape for every spec kind and every backend:

    * ``holds`` / ``verdict`` — the boolean verdict and its string form;
    * ``witness`` — for a violated ``AG`` spec, the span of the
      reachable directions that escape the property; for a satisfied
      ``EF`` spec, the span of the reachable components inside the
      target (``None`` when there is nothing to show); on a backward
      check, the span of the *initial* directions that can reach the
      event;
    * ``witness_trace`` — the executable counterexample for a violated
      ``AG`` / satisfied ``EF``: a path of operation symbols and
      intermediate subspaces, validated by forward replay (see
      :mod:`repro.mc.witness`);
    * ``dimensions`` / ``iterations`` / ``converged`` — the
      reachability trace behind a temporal verdict (the backward trace
      when ``direction="backward"``);
    * ``direction`` / ``bound`` — the analysis orientation and the
      effective step bound (0 = unbounded; a spec-level ``AG[<=k]``
      bound wins over the config's);
    * ``stats`` — the kernel cost profile (wall time, peak nodes,
      cache hit/miss, GC);
    * ``config`` — the exact engine configuration that produced this
      result, echoed back for artifacts and reproducibility.
    """

    spec: str
    kind: str                       # "AG" | "EF" | "now"
    holds: bool
    model: str
    config: CheckerConfig
    reachable_dimension: int = 0
    dimensions: List[int] = field(default_factory=list)
    iterations: int = 0
    converged: bool = True
    witness: Optional[Subspace] = None
    witness_trace: Optional[WitnessTrace] = None
    direction: str = "forward"
    bound: int = 0
    stats: StatsRecorder = field(default_factory=StatsRecorder)

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "violated"

    @property
    def witness_dimension(self) -> int:
        return self.witness.dimension if self.witness is not None else 0

    @property
    def trace_length(self) -> int:
        return (self.witness_trace.length
                if self.witness_trace is not None else 0)

    @property
    def seconds(self) -> float:
        return self.stats.seconds

    def as_dict(self) -> dict:
        """A flat JSON-able summary (sweep artifacts, CSV rows)."""
        out = {"spec": self.spec, "kind": self.kind,
               "verdict": self.verdict, "holds": self.holds,
               "model": self.model,
               "reachable_dimension": self.reachable_dimension,
               "witness_dimension": self.witness_dimension,
               "iterations": self.iterations,
               "converged": self.converged,
               "direction": self.direction,
               "bound": self.bound,
               "config": self.config.as_dict()}
        if self.witness_trace is not None:
            out.update(self.witness_trace.as_dict())
        else:
            out.update({"trace_length": 0, "trace_symbols": "",
                        "trace_valid": False, "trace_dimensions": []})
        out.update(self.stats.as_dict())
        return out

    def __repr__(self) -> str:
        return (f"CheckResult({self.spec!r}: {self.verdict}, "
                f"reachable dim={self.reachable_dimension}, "
                f"witness dim={self.witness_dimension})")


class ModelChecker:
    """Model checking driver for one quantum transition system."""

    def __init__(self, qts: QuantumTransitionSystem,
                 config: Optional[CheckerConfig] = None) -> None:
        if config is None:
            config = CheckerConfig()
        elif not isinstance(config, CheckerConfig):
            raise ConfigError(f"ModelChecker takes a CheckerConfig, got "
                              f"{type(config).__name__}")
        self.qts = qts
        self.config = config

    def _resolve(self, direction: Optional[str] = None,
                 bound: Optional[int] = None) -> CheckerConfig:
        """The config with the given per-call overrides applied
        (``None`` keeps the config's value)."""
        changes = {name: value for name, value in
                   (("direction", direction), ("bound", bound))
                   if value is not None
                   and value != getattr(self.config, name)}
        return self.config.replace(**changes) if changes else self.config

    # ------------------------------------------------------------------
    def image(self, subspace: Optional[Subspace] = None,
              direction: Optional[str] = None) -> ImageResult:
        """One-step image ``T(S)`` — or preimage — with run statistics."""
        return compute_image(self.qts, subspace,
                             config=self._resolve(direction))

    def reachable(self, max_iterations: int = 0,
                  direction: Optional[str] = None,
                  bound: Optional[int] = None,
                  warm_start: Optional[Subspace] = None
                  ) -> ReachabilityTrace:
        """The reachable subspace from the initial space.

        ``direction``/``bound`` default to the checker's config:
        ``backward`` computes the space of states that can *reach*
        ``S0`` (the preimage fixpoint) and a positive ``bound`` stops
        after that many image steps.  ``warm_start`` seeds the
        fixpoint with a subspace known to be reachable.
        """
        return reachable_space(self.qts, self._resolve(direction, bound),
                               max_iterations=max_iterations,
                               warm_start=warm_start)

    def cross_validate(self, subspace: Optional[Subspace] = None,
                       tol: float = 1e-7, spec=None) -> CrossValidation:
        """Compare this checker's computation against the dense reference.

        Without ``spec``: one image per backend; with ``spec``: one
        full :meth:`check` per backend (verdicts must agree).  A dense
        checker compares against the default tdd engine under its own
        direction and bound.
        """
        if self.config.backend == "tdd":
            tdd_config = self.config
        else:
            tdd_config = CheckerConfig(direction=self.config.direction,
                                       bound=self.config.bound)
        return cross_validate(self.qts, subspace, tol=tol, spec=spec,
                              config=tdd_config,
                              max_qubits=self.config.max_qubits or None)

    # ------------------------------------------------------------------
    # the unified specification check
    # ------------------------------------------------------------------
    def check(self, spec, initial: Optional[Subspace] = None,
              max_iterations: int = 0,
              tol: float = CHECK_EPS,
              direction: Optional[str] = None,
              bound: Optional[int] = None,
              witness_trace: bool = True,
              reach_cache: Optional[ReachabilityCache] = None
              ) -> CheckResult:
        """Check a temporal specification; one verb, one result shape.

        ``spec`` is a spec string (``"AG inv"``, ``"EF[<=3] target"``,
        ``"AG (inv & ~bad)"`` — parsed by
        :func:`repro.mc.specs.parse_spec`) or an AST from
        :mod:`repro.mc.logic`.  Named atoms resolve against the
        subspaces the model registered (plus ``init``).  Semantics:

        * ``AG φ`` — the reachable space from ``initial`` (default
          ``S0``) is contained in ``[[φ]]``; on violation the result
          carries the escaping directions as ``witness`` and an
          executable counterexample as ``witness_trace``;
        * ``EF φ`` — some reachable direction has a component in
          ``[[φ]]`` (above ``tol``); when it holds the overlap
          components are the ``witness`` and the path reaching them
          the ``witness_trace``;
        * a bare proposition — ``initial`` (default ``S0``) is
          contained in ``[[φ]]`` *now*, no reachability involved.

        ``direction``/``bound`` default to the checker's config.  With
        ``direction="backward"`` the temporal checks run as *backward*
        reachability: the fixpoint starts from the event set
        (``[[φ]]^perp`` for ``AG``, ``[[φ]]`` for ``EF``) under the
        adjoint transition relation, and the verdict is decided by
        whether that backward-reachable space meets the initial one —
        equivalent to the forward verdict, and often cheaper when the
        event set is small.  A positive ``bound`` (or a spec-level
        ``AG[<=k]``/``EF[<=k]`` bound, which wins) limits the fixpoint
        to ``k`` image steps in either direction.

        Runs on whichever backend this checker is configured for; the
        verdicts — and the witness traces, which are built on the
        shared subspace machinery — are backend-independent by
        construction.  ``witness_trace=False`` leaves the
        counterexample out of the result (and skips extracting it,
        except to vouch for a warm-served verdict, see below).

        ``reach_cache`` (an in-memory
        :class:`~repro.mc.reachability.ReachabilityCache` or a
        disk-backed :class:`~repro.store.ResultStore` — both speak the
        same ``lookup``/``store``/``discard`` protocol) warm-starts
        the reachability fixpoint behind an unbounded temporal check:
        on an exact key hit — same transition relation, same fixpoint
        seed, same direction — the cached reachable space seeds the
        fixpoint, which certifies it closed with one image per class of
        proportional Kraus circuits (``stats.extra["cache_certified"]``)
        or, when the certificate fails, runs the loop from it; a miss
        stores the converged result for later runs.  The certificate
        cannot tell a closed entry that is too large, so a warm-served
        verdict that calls for a witness (a violated ``AG`` or a
        satisfied ``EF``, either direction) always extracts one — from
        ``start``, reading no entry — and stands only when it replays;
        otherwise the entry is discarded (a store quarantines it as
        ``"witness"``) and the check reruns cold.  The trace is attached
        only with ``witness_trace=True``.  The sweep runner uses this to
        share reachability across configurations that differ only in
        image method; a hit is recorded as ``stats.extra["cache_warm"]``.
        """
        from repro.mc.specs import parse_spec, resolve, to_text
        if isinstance(spec, str):
            spec = parse_spec(spec)
        elif not isinstance(spec, (Proposition, TemporalSpec)):
            raise SpecError(f"check() takes a spec string or AST, "
                            f"got {type(spec).__name__}")
        spec = resolve(spec, self.qts)
        text = to_text(spec)
        space = self.qts.space
        direction = (direction if direction is not None
                     else self.config.direction)

        if isinstance(spec, TemporalSpec):
            if spec.bound is not None:
                effective_bound = spec.bound
            elif bound is not None:
                effective_bound = bound
            else:
                effective_bound = self.config.bound
            target = spec.inner.denote(space)
            kind = spec.keyword
            start = initial if initial is not None else self.qts.initial

            def decide(trace, replay):
                """``(holds, witness, witness trace)`` of one fixpoint;
                the trace is extracted only when ``replay`` is set and
                the verdict calls for one."""
                holds, witness = self._verdict(spec, target, start,
                                               trace, tol)
                found = None
                if replay and (kind == Always.keyword) != holds:
                    found = extract_witness_trace(
                        self.qts, kind, target, initial=start, tol=tol,
                        bound=effective_bound, config=self.config)
                return holds, witness, found

            served = []

            def vouch(trace):
                # a closed superspace of the reachable space passes the
                # warm-start certificate, and can only flip a verdict to
                # one that calls for a witness; the witness is built
                # from ``start`` and replayed forward, reading no entry
                outcome = decide(trace, replay=True)
                served.append((trace, outcome))
                holds, _, found = outcome
                return ((kind == Always.keyword) == holds
                        or (found is not None and found.valid))

            if direction == "backward":
                trace = self._backward_trace(spec, target, max_iterations,
                                             effective_bound, reach_cache,
                                             vouch)
            else:
                trace = self._reachable_with_cache(
                    start, initial, max_iterations, "forward",
                    effective_bound, reach_cache, vouch)
            holds, witness, trace_obj = (
                next((o for t, o in served if t is trace), None)
                or decide(trace, witness_trace))
            return CheckResult(
                spec=text, kind=kind, holds=holds,
                model=self.qts.name, config=self.config,
                reachable_dimension=trace.subspace.dimension,
                dimensions=list(trace.dimensions),
                iterations=trace.iterations,
                converged=trace.converged,
                witness=witness,
                witness_trace=trace_obj if witness_trace else None,
                direction=direction, bound=effective_bound,
                stats=trace.stats)

        # a bare proposition: satisfaction of the initial space, now
        target = spec.denote(space)
        start = initial if initial is not None else self.qts.initial
        holds = target.contains(start, tol)
        witness = None if holds else _escaping_directions(start, target, tol)
        return CheckResult(
            spec=text, kind="now", holds=holds,
            model=self.qts.name, config=self.config,
            reachable_dimension=start.dimension,
            dimensions=[start.dimension],
            witness=witness, direction=direction)

    def _reachable_with_cache(self, seed: Subspace,
                              initial: Optional[Subspace],
                              max_iterations: int, direction: str,
                              bound: int, reach_cache,
                              vouch=None) -> ReachabilityTrace:
        """The fixpoint behind a temporal check, warm-started if possible.

        ``seed`` is the subspace the fixpoint actually starts from
        (``initial``-or-``S0`` forward, the event set backward) — the
        cache key (see :func:`~repro.mc.reachability.cached_reachable`,
        which also takes ``vouch``).
        """
        config = self._resolve(direction, bound)

        def run(warm):
            return reachable_space(self.qts, config, initial=initial,
                                   max_iterations=max_iterations,
                                   warm_start=warm)
        return cached_reachable(reach_cache, self.qts, seed, direction, run,
                                bound=bound, max_iterations=max_iterations,
                                vouch=vouch)

    def _backward_trace(self, spec: TemporalSpec, target: Subspace,
                        max_iterations: int, bound: int, reach_cache,
                        vouch) -> ReachabilityTrace:
        """The backward (preimage) fixpoint from the event set.

        The event set is ``[[φ]]^perp`` for ``AG`` (a state escapes φ
        iff it has a component in the orthocomplement) and ``[[φ]]``
        for ``EF``; :meth:`_verdict` then asks whether the
        backward-reachable space — under the adjoint Kraus family —
        meets the initial space (``<v|E u> = <E^dagger v|u>`` makes the
        two formulations equivalent).
        """
        event = (target.complement() if isinstance(spec, Always)
                 else target)
        if event.dimension == 0:
            # AG of the full space holds, EF of the zero space fails —
            # with nothing to walk back from
            trace = ReachabilityTrace(subspace=event, dimensions=[0],
                                      direction="backward", bound=bound)
            trace.stats.extra["direction"] = "backward"
            return trace
        return self._reachable_with_cache(
            event, event, max_iterations, "backward", bound, reach_cache,
            vouch)

    @staticmethod
    def _verdict(spec: TemporalSpec, target: Subspace, start: Subspace,
                 trace: ReachabilityTrace, tol: float):
        """``(holds, witness)`` from a fixpoint of either direction.

        Forward, ``AG`` holds when the reachable space lies in the
        target (the witness is the escaping directions) and ``EF`` when
        some reachable direction overlaps it.  Backward, the witness is
        the span of the initial directions that can reach the event,
        and the event is reachable iff there is one.
        """
        reached = trace.subspace
        if trace.direction == "backward":
            witness = _overlap_witness(reached, start, tol)
            overlaps = witness is not None
            return (not overlaps if isinstance(spec, Always)
                    else overlaps), witness
        if isinstance(spec, Always):
            holds = target.contains(reached, tol)
            return holds, (None if holds else
                           _escaping_directions(reached, target, tol))
        # verdict and witness from the same criterion: some reachable
        # basis vector has a component in the target above tol
        witness = _overlap_witness(reached, target, tol)
        return witness is not None, witness

    # ------------------------------------------------------------------
    # subspace-level checks, reimplemented on top of check()
    # ------------------------------------------------------------------
    def check_invariant(self, subspace: Optional[Subspace] = None,
                        strict: bool = False) -> bool:
        """Does the system stay inside ``S`` (``T(S) <= S``)?

        Equivalent to checking ``AG S`` from initial space ``S``, and
        one fixpoint round decides it (``S v T(S) <= S`` iff
        ``T(S) <= S``), so this costs a single image computation like
        the direct comparison did.  ``strict`` requires ``T(S) = S``;
        equality needs the image itself, so that path compares one
        image directly (same single-image cost).
        """
        if subspace is None:
            subspace = self.qts.initial
        if strict:
            # invariance is a forward-image notion by definition, so a
            # backward-configured checker must not substitute the
            # preimage here
            image = compute_image(self.qts, subspace,
                                  config=self._resolve("forward")).subspace
            return image.equals(subspace)
        return self.check(Always(Atomic(subspace, "S")), initial=subspace,
                          max_iterations=1, direction="forward").holds

    def check_image_equals(self, expected: Subspace,
                           subspace: Optional[Subspace] = None) -> bool:
        image = compute_image(self.qts, subspace,
                              config=self._resolve("forward")).subspace
        return image.equals(expected)

    def __repr__(self) -> str:
        return (f"ModelChecker({self.qts.name!r}, "
                f"method={self.config.method!r}, "
                f"backend={self.config.backend!r})")


# ----------------------------------------------------------------------
# cross-validation
# ----------------------------------------------------------------------
@dataclass
class CrossValidation:
    """Outcome of comparing the same computation on two backends.

    For an image comparison the dimensions are ``dim T(S)`` per
    backend; for a spec comparison (``cross_validate(..., spec=...)``)
    they are the reachable-space dimensions and the verdicts are
    recorded as well.
    """

    tdd_dimension: int
    dense_dimension: int
    agree: bool
    tdd_seconds: float
    dense_seconds: float
    spec: Optional[str] = None
    tdd_verdict: Optional[str] = None
    dense_verdict: Optional[str] = None
    tdd_trace_length: Optional[int] = None
    dense_trace_length: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.agree

    def __repr__(self) -> str:
        status = "agree" if self.agree else "DISAGREE"
        if self.spec is not None:
            return (f"CrossValidation({status} on {self.spec!r}: "
                    f"tdd={self.tdd_verdict}, dense={self.dense_verdict})")
        return (f"CrossValidation({status}: tdd dim={self.tdd_dimension}, "
                f"dense dim={self.dense_dimension})")


def cross_validate(qts: QuantumTransitionSystem,
                   subspace: Optional[Subspace] = None,
                   tol: float = 1e-7,
                   spec=None,
                   config: Optional[CheckerConfig] = None,
                   max_qubits: Optional[int] = None) -> CrossValidation:
    """Run the same computation on both backends and compare.

    The symbolic TDD engine against the dense statevector reference:
    any divergence on a small instance pinpoints a kernel bug before
    it ships at a scale where the dense oracle can no longer follow.

    Without ``spec``: one image ``T(S)`` per backend; agreement means
    equal dimension *and* mutual containment of the two subspaces
    (projector equality up to ``tol``).

    With ``spec`` (a spec string or AST, see :mod:`repro.mc.specs`):
    one full :meth:`ModelChecker.check` per backend; agreement means
    identical verdicts, reachable dimensions and witness-trace lengths.

    ``config`` fixes the symbolic engine's configuration (default
    ``CheckerConfig()``); the dense side mirrors its direction and
    bound, with ``max_qubits`` raising the dense size guard.
    """
    tdd_config = config if config is not None else CheckerConfig()
    if tdd_config.backend != "tdd":
        raise ConfigError("cross_validate config must describe the "
                          "tdd engine; the dense side is implicit")
    dense_config = CheckerConfig(backend="dense",
                                 max_qubits=max_qubits,
                                 direction=tdd_config.direction,
                                 bound=tdd_config.bound)

    if spec is not None:
        symbolic = ModelChecker(qts, tdd_config).check(spec)
        dense = ModelChecker(qts, dense_config).check(spec)
        agree = (symbolic.verdict == dense.verdict
                 and symbolic.reachable_dimension
                 == dense.reachable_dimension
                 and symbolic.trace_length == dense.trace_length)
        return CrossValidation(
            tdd_dimension=symbolic.reachable_dimension,
            dense_dimension=dense.reachable_dimension,
            agree=agree,
            tdd_seconds=symbolic.stats.seconds,
            dense_seconds=dense.stats.seconds,
            spec=symbolic.spec,
            tdd_verdict=symbolic.verdict,
            dense_verdict=dense.verdict,
            tdd_trace_length=symbolic.trace_length,
            dense_trace_length=dense.trace_length)

    symbolic = compute_image(qts, subspace, config=tdd_config)
    dense = compute_image(qts, subspace, config=dense_config)
    agree = (symbolic.subspace.dimension == dense.subspace.dimension
             and symbolic.subspace.equals(dense.subspace, tol))
    return CrossValidation(
        tdd_dimension=symbolic.subspace.dimension,
        dense_dimension=dense.subspace.dimension,
        agree=agree,
        tdd_seconds=symbolic.stats.seconds,
        dense_seconds=dense.stats.seconds)


# ----------------------------------------------------------------------
# witness construction
# ----------------------------------------------------------------------
def _witness_span(reached: Subspace, target: Subspace, tol: float,
                  inside: bool) -> Optional[Subspace]:
    """The span of each reached basis vector's component w.r.t. target.

    ``inside=True`` keeps the projections onto the target (the overlap
    witness of a satisfied ``EF``); ``inside=False`` keeps the
    residuals outside it (the escaping directions of a violated
    ``AG``).  Components with norm below ``tol`` are noise and are
    dropped; ``None`` means nothing survived.
    """
    components = []
    for vector in reached.basis:
        component = (target.project_state(vector) if inside
                     else target.residual(vector))
        norm = component.norm()
        if norm > tol:
            components.append(component.scaled(1.0 / norm))
    if not components:
        return None
    return reached.space.span(components)


def _escaping_directions(reached: Subspace, target: Subspace,
                         tol: float) -> Optional[Subspace]:
    return _witness_span(reached, target, tol, inside=False)


def _overlap_witness(reached: Subspace, target: Subspace,
                     tol: float) -> Optional[Subspace]:
    return _witness_span(reached, target, tol, inside=True)
