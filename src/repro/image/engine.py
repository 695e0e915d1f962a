"""Uniform entry point for image computation.

The **method** selects which of the paper's four algorithms partitions
the transition relation (``basic``, ``addition``, ``contraction``,
``hybrid``); each is one shape of the one slice x block computer
(:class:`~repro.image.base.ImageComputerBase`), and every resulting
contraction is one call of the TDD kernel.

:class:`ImageEngine` binds a method computer to a system.  The method,
its parameters and the direction come from one
:class:`~repro.mc.config.CheckerConfig`; its ``backend`` picks between
this symbolic engine and the dense reference
(:class:`~repro.image.dense.DenseImageEngine`) in :func:`make_engine`.
The module-level :func:`compute_image` is the one-shot convenience
wrapper used throughout the benchmarks and the CLI.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import GS_EPS
from repro.errors import ConfigError, ReproError
from repro.image.base import ImageComputerBase, ImageResult
from repro.image.dense import DenseImageEngine
from repro.subspace.subspace import Subspace
from repro.systems.qts import QuantumTransitionSystem
from repro.utils.stats import StatsRecorder
from repro.utils.timing import Stopwatch

METHODS = ("basic", "addition", "contraction", "hybrid")

#: method name -> the parameter names that method understands
METHOD_PARAMS = {
    "basic": frozenset(),
    "addition": frozenset({"k"}),
    "contraction": frozenset({"k1", "k2"}),
    "hybrid": frozenset({"k", "k1", "k2"}),
}

#: the paper's Table I parameters per image method (addition k = 1,
#: contraction k1 = k2 = 4; hybrid takes both): the values of a
#: method's unset parameters, and the CLI flag defaults, the sweep's
#: axes mode, the smoke benchmark and Table I read these
TABLE1_PARAMS = {
    "basic": {},
    "addition": {"k": 1},
    "contraction": {"k1": 4, "k2": 4},
    "hybrid": {"k": 1, "k1": 4, "k2": 4},
}

#: image orientations: forward computes ``T(S)``, backward the
#: preimage ``T^dagger(S)`` (images of the adjoint system)
DIRECTIONS = ("forward", "backward")


def make_computer(qts: QuantumTransitionSystem, method: str = "basic",
                  **params) -> ImageComputerBase:
    """The image computer of ``method``: one shape of the slice x block
    computer (``n`` is the qubit count).

    * ``basic`` slices nothing and keeps one block (``k = 0, k1 = n``);
    * ``addition`` slices ``k`` indices of one block (``k1 = n``);
    * ``contraction`` cuts ``k1`` x ``k2`` blocks without slicing;
    * ``hybrid`` does both.

    ``params`` are the method's names in :data:`METHOD_PARAMS`; an
    unset one takes its :data:`TABLE1_PARAMS` value.  The method and
    its parameters are checked by :class:`~repro.mc.config.
    CheckerConfig`, which raises a :class:`~repro.errors.ConfigError`.
    """
    # imported here: the config validates against this module's names
    from repro.mc.config import CheckerConfig
    CheckerConfig(method=method, method_params=params)
    shape = {"k": 0, "k1": qts.num_qubits, "k2": None,
             **TABLE1_PARAMS[method], **params}
    return ImageComputerBase(qts, **shape)


class ImageEngine:
    """An image computer bound to a system.

    Built from a tdd :class:`~repro.mc.config.CheckerConfig`: the
    engine holds the configured method's computer.  The operator
    diagrams live in the system's operator cache, so every engine on
    one system shares them.

    ``direction="backward"`` switches the engine to *preimage* mode:
    the computer is built against the adjoint system
    (:meth:`~repro.systems.qts.QuantumTransitionSystem.adjoint`), so
    every method partitions the Kraus-dagger transition relation, with
    the adjoint operator TDDs cached across calls exactly like the
    forward ones.

    The engine implements the fixpoint-engine protocol of
    :mod:`repro.mc.reachability` over TDD :class:`Subspace` values.
    """

    def __init__(self, qts: QuantumTransitionSystem, config) -> None:
        if config.backend != "tdd":
            raise ReproError(
                f"ImageEngine runs the symbolic tdd engine; got a "
                f"config for backend={config.backend!r}")
        self.qts = qts
        self.config = config
        #: the system whose transition relation is contracted — the
        #: adjoint one in preimage mode (same manager, same space)
        self.system = (qts if config.direction == "forward"
                       else qts.adjoint())
        self.computer = make_computer(self.system, config.method,
                                      **config.method_params)

    # ------------------------------------------------------------------
    # the fixpoint-engine protocol (see repro.mc.reachability)
    # ------------------------------------------------------------------
    def lower(self, subspace: Subspace) -> Subspace:
        """The engine's own representation of ``subspace`` (itself)."""
        return subspace

    def lift(self, subspace: Subspace, stats: StatsRecorder) -> Subspace:
        """Back from the engine's representation (the identity here)."""
        return subspace

    def extend(self, current: Subspace, source: Subspace,
               stats: Optional[StatsRecorder] = None) -> Subspace:
        """``current v T(source)``: the image states of ``source`` under
        the system's image circuits (one per class of proportional Kraus
        circuits) go straight into a copy of ``current``, one
        Gram-Schmidt pass each, with no intermediate image subspace or
        projector."""
        return self.computer.partial_image(
            source, self.system.image_circuits(), stats,
            into=current.copy()).subspace

    def new_directions(self, previous: Subspace,
                       grown: Subspace) -> Subspace:
        # the basis vectors Gram-Schmidt added beyond the previous
        # space: extend() keeps the previous basis as the prefix, so
        # the tail is orthonormal and orthogonal to it already
        return grown.tail(previous.dimension)

    def certify(self, current: Subspace, phases: Sequence[complex],
                stats: StatsRecorder) -> bool:
        """Does ``E r`` stay within ``GS_EPS`` of ``current`` for every
        Kraus circuit ``E``, where ``r = sum_j phases[j] basis[j]``?

        One image of ``r`` per image circuit (:meth:`~repro.systems.qts.
        QuantumTransitionSystem.image_circuits`), through the configured
        method: a dropped circuit is ``f·E_rep`` with ``|f| <= 1``, so
        its residual is at most its representative's.  The residual is
        absolute, so a leak of one basis vector is not diluted by
        ``|r|`` (see
        :func:`~repro.mc.reachability.reachable_space`).  The operators
        are built first (:meth:`~repro.image.base.ImageComputerBase.
        prepare_family`, which collects after any build), and the
        manager collects after forming ``r`` and after each image and
        each residual, so the live-node peak stays that of the builds.
        """
        manager = self.qts.manager
        circuits = self.system.image_circuits()
        self.computer.prepare_family(circuits, stats)
        mixed = current.combine([complex(phase) for phase in phases])
        stats.observe_tdd(mixed)
        manager.collect()
        for circuit in circuits:
            image = self.computer.circuit_image(mixed, circuit, stats)
            stats.observe_tdd(image)
            manager.collect()
            closed = current.distance(image) <= GS_EPS
            manager.collect()
            if not closed:
                return False
        return True

    # ------------------------------------------------------------------
    def compute_image(self, subspace: Optional[Subspace] = None
                      ) -> ImageResult:
        """Compute ``T(S)`` and record the full kernel cost profile."""
        stats = StatsRecorder()
        manager = self.qts.manager
        baseline = manager.cache_counters()
        watch = Stopwatch().start()
        result = self.computer.image(subspace, stats)
        stats.seconds = watch.stop()
        manager.collect()
        stats.record_manager(manager, baseline)
        return result

    def __repr__(self) -> str:
        return f"ImageEngine({self.config.describe()})"


def make_engine(qts: QuantumTransitionSystem, config=None):
    """The engine for ``config.backend``: symbolic or dense.

    ``config`` is a :class:`~repro.mc.config.CheckerConfig` (default:
    ``CheckerConfig()``).  Both engines implement the fixpoint-engine
    protocol of :mod:`repro.mc.reachability` and a one-shot
    ``compute_image``.
    """
    # imported here: the config validates against this module's names
    from repro.mc.config import CheckerConfig
    if config is None:
        config = CheckerConfig()
    elif not isinstance(config, CheckerConfig):
        raise ConfigError(f"expected a CheckerConfig, got "
                          f"{type(config).__name__}")
    if config.backend == "dense":
        return DenseImageEngine(qts, config)
    return ImageEngine(qts, config)


def compute_image(qts: QuantumTransitionSystem,
                  subspace: Optional[Subspace] = None,
                  config=None) -> ImageResult:
    """One-shot ``T(S)`` — or preimage ``T^dagger(S)`` — with run stats.

    ``config`` is a :class:`~repro.mc.config.CheckerConfig` (default:
    ``CheckerConfig()``) and may select either backend;
    ``direction="backward"`` computes the preimage (the image under
    the adjoint Kraus family).

    On the tdd backend the returned :class:`ImageResult` stats carry
    wall time, peak TDD node count, operation-cache hit/miss counts for
    this run and — after the post-run garbage collection — the peak and
    surviving live-node populations of the manager.
    """
    return make_engine(qts, config).compute_image(subspace)
