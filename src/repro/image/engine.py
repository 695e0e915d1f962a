"""Uniform entry point for image computation.

The **method** selects which of the paper's four algorithms partitions
the transition relation (``basic``, ``addition``, ``contraction``,
``hybrid``); every resulting contraction is one call of the TDD
kernel.

:class:`ImageEngine` binds a method computer to a system.  The method,
its parameters and the direction come from one
:class:`~repro.mc.config.CheckerConfig`; its ``backend`` picks between
this symbolic engine and the dense reference
(:class:`~repro.image.dense.DenseImageEngine`) in :func:`make_engine`.
The module-level :func:`compute_image` is the one-shot convenience
wrapper used throughout the benchmarks and the CLI.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigError, ReproError
from repro.image.addition import AdditionImageComputer
from repro.image.base import ImageComputerBase, ImageResult
from repro.image.basic import BasicImageComputer
from repro.image.contraction import ContractionImageComputer
from repro.image.dense import DenseImageEngine
from repro.image.hybrid import HybridImageComputer
from repro.subspace.subspace import Subspace
from repro.systems.qts import QuantumTransitionSystem
from repro.utils.stats import StatsRecorder
from repro.utils.timing import Stopwatch

METHODS = ("basic", "addition", "contraction", "hybrid")

#: image orientations: forward computes ``T(S)``, backward the
#: preimage ``T^dagger(S)`` (images of the adjoint system)
DIRECTIONS = ("forward", "backward")


def make_computer(qts: QuantumTransitionSystem, method: str = "basic",
                  **params) -> ImageComputerBase:
    """Instantiate an image computer by method name.

    ``params``: ``k`` for addition, ``k1``/``k2``/``order_policy`` for
    contraction, all of them for hybrid.
    """
    if method == "basic":
        if params:
            raise ReproError(f"basic method takes no parameters, got "
                             f"{sorted(params)}")
        return BasicImageComputer(qts)
    if method == "addition":
        return AdditionImageComputer(qts, **params)
    if method == "contraction":
        return ContractionImageComputer(qts, **params)
    if method == "hybrid":
        return HybridImageComputer(qts, **params)
    raise ReproError(f"unknown image method {method!r}; "
                     f"choose from {METHODS}")


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
    :mod:`repro.mc.drivers` over TDD :class:`Subspace` values.
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
    # the fixpoint-engine protocol (see repro.mc.drivers)
    # ------------------------------------------------------------------
    def lower(self, subspace: Subspace) -> Subspace:
        """The engine's own representation of ``subspace`` (itself)."""
        return subspace

    def lift(self, subspace: Subspace, stats: StatsRecorder) -> Subspace:
        """Back from the engine's representation (the identity here)."""
        return subspace

    def extend(self, current: Subspace, source: Subspace,
               stats: Optional[StatsRecorder] = None) -> Subspace:
        """``current v T(source)``: the image states of ``source`` go
        straight into a copy of ``current``, one Gram-Schmidt pass
        each, with no intermediate image subspace or projector."""
        return self.computer.partial_image(
            source, self.system.all_kraus_circuits(), stats,
            into=current.copy()).subspace

    def new_directions(self, previous: Subspace,
                       grown: Subspace) -> Subspace:
        # the basis vectors Gram-Schmidt added beyond the previous
        # space: extend() keeps the previous basis as the prefix, so
        # the tail is orthonormal and orthogonal to it already
        return grown.tail(previous.dimension)

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
    protocol of :mod:`repro.mc.drivers` and a one-shot
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
