"""Uniform entry point for image computation.

Two orthogonal choices select how an image ``T(S)`` is computed:

* the **method** — which of the paper's four algorithms partitions the
  transition relation (``basic``, ``addition``, ``contraction``,
  ``hybrid``), and
* the **strategy** — how the resulting contractions execute:
  ``monolithic`` (sequential, in-process) or ``sliced`` (cofactor
  decomposition along top summed index levels, optionally fanned out
  over a process pool — see :mod:`repro.image.sliced`).

:class:`ImageEngine` bundles a method computer with an execution
strategy and owns the strategy's worker-pool lifecycle.  Both choices
come from one :class:`~repro.mc.config.CheckerConfig`; its ``backend``
picks between this symbolic engine and the dense reference
(:class:`~repro.image.dense.DenseImageEngine`) in :func:`make_engine`.
The module-level :func:`compute_image` is the one-shot convenience
wrapper used throughout the benchmarks and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from repro.errors import ConfigError, ReproError
from repro.image.addition import AdditionImageComputer
from repro.image.base import ImageComputerBase, ImageResult
from repro.image.basic import BasicImageComputer
from repro.image.contraction import ContractionImageComputer
from repro.image.dense import DenseImageEngine
from repro.image.hybrid import HybridImageComputer
from repro.image.sliced import make_executor
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


@dataclass
class ImageTask:
    """One schedulable unit of image work.

    The image operator distributes over operations (Proposition 1):
    ``T(S) = v_sigma T_sigma(S)``, so one task carries the whole Kraus
    family of one operation applied to one source subspace.  Drivers
    (:mod:`repro.mc.drivers`) decide how the tasks of a fixpoint round
    are scheduled and how their partial images recombine; running a
    task routes every contraction through the engine's executor, so
    sliced/pooled execution applies per task with no extra plumbing.
    """

    symbol: str
    circuits: Sequence
    source: Subspace
    computer: ImageComputerBase

    def run(self, stats: Optional[StatsRecorder] = None) -> ImageResult:
        """The partial image ``T_sigma(source)`` with run stats."""
        return self.computer.partial_image(self.source, self.circuits,
                                           stats)

    def __repr__(self) -> str:
        return (f"ImageTask({self.symbol!r}, kraus={len(self.circuits)}, "
                f"source_dim={self.source.dimension})")


class ImageEngine:
    """An image computer bound to an execution strategy.

    Built from a tdd :class:`~repro.mc.config.CheckerConfig`: the
    engine wires a :class:`~repro.image.sliced` executor into the
    configured method's computer and owns the executor's process pool;
    use it as a context manager (or call :meth:`close`) when
    ``strategy="sliced"`` with ``jobs > 1`` so workers are reaped
    deterministically.  Reusing one engine across calls reuses the
    computer's cached operator diagrams *and* the executor's cofactor
    slices — the intended shape for reachability fixpoints and sweeps.

    ``direction="backward"`` switches the engine to *preimage* mode:
    the computer is built against the adjoint system
    (:meth:`~repro.systems.qts.QuantumTransitionSystem.adjoint`), so
    every method partitions — and every strategy executes — the
    Kraus-dagger transition relation, with the adjoint operator TDDs
    cached across calls exactly like the forward ones.

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
        self.computer.executor = make_executor(
            config.strategy, qts.manager, jobs=config.jobs,
            slice_depth=config.slice_depth)

    @property
    def executor(self):
        return self.computer.executor

    # ------------------------------------------------------------------
    def image_tasks(self, source: Subspace) -> Iterator[ImageTask]:
        """One :class:`ImageTask` per operation of the system.

        In backward mode the tasks are built against the adjoint
        operations, so running them computes per-operation *preimages*.
        The join of all task results equals ``computer.image(source)``
        (same dimension and mutual containment; the Gram-Schmidt basis
        may differ with the combine order).
        """
        for op in self.system.operations:
            yield ImageTask(symbol=op.symbol, circuits=op.kraus_circuits,
                            source=source, computer=self.computer)

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

    def partial_images(self, source: Subspace,
                       stats: Optional[StatsRecorder] = None
                       ) -> List[Subspace]:
        """Per-operation partial images (Proposition 1)."""
        return [task.run(stats).subspace
                for task in self.image_tasks(source)]

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
        if self.config.strategy != "monolithic":
            stats.extra["strategy"] = self.config.strategy
        manager = self.qts.manager
        baseline = manager.cache_counters()
        watch = Stopwatch().start()
        result = self.computer.image(subspace, stats)
        stats.seconds = watch.stop()
        manager.collect()
        stats.record_manager(manager, baseline)
        return result

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the strategy's worker pool (idempotent)."""
        self.computer.executor.close()

    def __enter__(self) -> "ImageEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ImageEngine({self.config.describe()})"


def make_engine(qts: QuantumTransitionSystem, config=None):
    """The engine for ``config.backend``: symbolic or dense.

    ``config`` is a :class:`~repro.mc.config.CheckerConfig` (default:
    ``CheckerConfig()``).  Both engines implement the fixpoint-engine
    protocol of :mod:`repro.mc.drivers` and a one-shot
    ``compute_image``, and both are context managers.
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
    this run, sliced strategy counters (cofactors executed / shipped to
    the pool) and — after the post-run garbage collection — the peak
    and surviving live-node populations of the manager.
    """
    with make_engine(qts, config) as engine:
        return engine.compute_image(subspace)
