"""Pluggable computation backends for model checking.

The :class:`~repro.mc.checker.ModelChecker` (and the CLI) can run every
check on one of two interchangeable engines:

* ``tdd`` — the symbolic TDD kernel (the paper's algorithms; scales
  with diagram size, not Hilbert-space dimension), or
* ``dense`` — the :mod:`repro.sim` statevector reference (explicitly
  exponential; Kraus matrices applied to dense basis vectors, subspaces
  closed by SVD).

Both are configured through one validated
:class:`~repro.mc.config.CheckerConfig`, run the same fixpoint loop
(:func:`~repro.mc.reachability.reachable_space` over the engine
:func:`~repro.image.engine.make_engine` picks) and return the same
result types (``ImageResult`` / ``ReachabilityTrace`` over TDD-backed
subspaces), so results cross-validate structurally:
:func:`cross_validate` runs an image — or a full temporal-spec check —
on both backends and compares the outcomes.  This is the
production-style guard rail for the symbolic engine: any divergence on
a small instance pinpoints a kernel bug before it ships at a scale
where the dense oracle can no longer follow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.image.base import ImageResult
from repro.image.engine import compute_image
from repro.mc.config import CheckerConfig
from repro.mc.reachability import ReachabilityTrace, reachable_space
from repro.subspace.subspace import Subspace
from repro.systems.qts import QuantumTransitionSystem


class Backend:
    """One engine that can compute images and reachable spaces.

    Holds one :class:`~repro.mc.config.CheckerConfig` for its backend.
    ``direction``/``bound`` override the config per call —
    ``None`` means "use the config's".  ``warm_start`` seeds the
    fixpoint with a subspace known to lie inside the true reachable
    space — served by the in-memory
    :class:`~repro.mc.reachability.ReachabilityCache` or the
    disk-backed :class:`~repro.store.ResultStore`; both key on content
    fingerprints, so a seed computed by either backend (or in another
    process) warm-starts the other.
    """

    name = "abstract"

    def __init__(self, config: Optional[CheckerConfig] = None) -> None:
        if config is None:
            config = CheckerConfig(backend=self.name)
        if not isinstance(config, CheckerConfig):
            raise ConfigError(f"{type(self).__name__} takes a "
                              f"CheckerConfig, got {type(config).__name__}")
        if config.backend != self.name:
            raise ConfigError(f"{type(self).__name__} needs a "
                              f"{self.name} config, got "
                              f"backend={config.backend!r}")
        self.config = config

    def resolve(self, direction: Optional[str] = None,
                bound: Optional[int] = None) -> CheckerConfig:
        """The config with the given per-call overrides applied."""
        changes = {name: value for name, value in
                   (("direction", direction), ("bound", bound))
                   if value is not None
                   and value != getattr(self.config, name)}
        return self.config.replace(**changes) if changes else self.config

    def compute_image(self, qts: QuantumTransitionSystem,
                      subspace: Optional[Subspace] = None,
                      direction: Optional[str] = None) -> ImageResult:
        """``T(S)`` — or the preimage ``T^dagger(S)`` — with run stats."""
        return compute_image(qts, subspace,
                             config=self.resolve(direction=direction))

    def reachable(self, qts: QuantumTransitionSystem,
                  initial: Optional[Subspace] = None,
                  max_iterations: int = 0,
                  direction: Optional[str] = None,
                  bound: Optional[int] = None,
                  warm_start: Optional[Subspace] = None
                  ) -> ReachabilityTrace:
        """The reachability fixpoint from ``initial`` (default ``S0``)."""
        return reachable_space(qts, self.resolve(direction, bound),
                               initial=initial,
                               max_iterations=max_iterations,
                               warm_start=warm_start)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.config.describe()})"


class TDDBackend(Backend):
    """The symbolic backend (the paper's algorithms)."""

    name = "tdd"


class DenseStatevectorBackend(Backend):
    """The dense reference backend (exponential; small instances only).

    Images are computed with explicit Kraus matrices on dense basis
    vectors (:class:`~repro.image.dense.DenseImageEngine`); the
    resulting orthonormal basis is lifted back into TDD states so the
    result type matches the symbolic backend exactly.
    """

    name = "dense"


def make_backend(config: Optional[CheckerConfig] = None) -> Backend:
    """Instantiate the backend a :class:`CheckerConfig` names."""
    if config is None:
        config = CheckerConfig()
    if not isinstance(config, CheckerConfig):
        raise ConfigError(f"make_backend takes a CheckerConfig, got "
                          f"{type(config).__name__}")
    if config.backend == "tdd":
        return TDDBackend(config)
    return DenseStatevectorBackend(config)


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

    Without ``spec``: one image ``T(S)`` per backend; agreement means
    equal dimension *and* mutual containment of the two subspaces
    (projector equality up to ``tol``).

    With ``spec`` (a spec string or AST, see :mod:`repro.mc.specs`):
    one full :meth:`~repro.mc.checker.ModelChecker.check` per backend;
    agreement means identical verdicts and reachable dimensions.

    ``config`` fixes the symbolic engine's configuration (default
    ``CheckerConfig()``); the dense side mirrors its direction and
    bound, with ``max_qubits`` raising the dense size guard.
    """
    from repro.mc.checker import ModelChecker
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
