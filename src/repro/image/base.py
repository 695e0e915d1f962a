"""Shared plumbing for the image computation algorithms."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.indices.index import Index
from repro.subspace.subspace import StateSpace, Subspace
from repro.systems.qts import QuantumTransitionSystem
from repro.tdd.tdd import TDD
from repro.utils.stats import StatsRecorder


@dataclass
class ImageResult:
    """The outcome of one image computation: ``T(S)`` plus run costs."""

    subspace: Subspace
    stats: StatsRecorder

    @property
    def dimension(self) -> int:
        return self.subspace.dimension


def rename_outputs_to_kets(space: StateSpace, state: TDD,
                           outputs: Sequence[Index]) -> TDD:
    """Relabel a circuit-output state back onto the canonical kets.

    ``outputs[q]`` is the last wire index of qubit *q*; wires never
    advanced by the circuit already carry the ket name and map
    identically.
    """
    mapping = {}
    for qubit, out_idx in enumerate(outputs):
        ket = space.kets[qubit]
        if out_idx != ket:
            mapping[out_idx] = ket
    if not mapping:
        return state
    return state.rename(mapping)


def input_sum_indices(inputs: Sequence[Index],
                      outputs: Sequence[Index]) -> List[Index]:
    """The circuit-input indices consumed by applying the operator.

    Fused wires (diagonal-only qubits) keep a single shared index that
    serves as both input and output and therefore must stay free.
    """
    output_set = set(outputs)
    return [idx for idx in inputs if idx not in output_set]


class ImageComputerBase:
    """Common state for the four algorithms: system + per-circuit caches.

    Every computer routes its transition-relation contractions through
    ``self.executor`` (monolithic in-process by default; the engine
    swaps in a :class:`~repro.image.sliced.SlicedExecutor` when the
    sliced strategy is selected), so sliced execution composes
    with each algorithm without touching its partitioning logic.  Every
    Kraus circuit of a family runs through the method's own partition.
    """

    method: str = "abstract"

    def __init__(self, qts: QuantumTransitionSystem) -> None:
        from repro.image.sliced import MonolithicExecutor
        self.qts = qts
        #: pluggable contraction executor (see :mod:`repro.image.sliced`)
        self.executor = MonolithicExecutor()
        #: peak nodes observed while building cached operator diagrams
        self.build_stats = StatsRecorder()

    def image(self, subspace: Optional[Subspace] = None,
              stats: Optional[StatsRecorder] = None) -> ImageResult:
        """Compute ``T(S)`` (defaults: ``S`` = the system's initial space).

        The size of the image projector is observed into ``max_nodes``,
        as Table I counts it.
        """
        if stats is None:
            stats = StatsRecorder()
        result = self.partial_image(subspace, self.qts.all_kraus_circuits(),
                                    stats)
        stats.observe_nodes(result.subspace.projector.size())
        return result

    def partial_image(self, subspace: Optional[Subspace],
                      circuits: Sequence,
                      stats: Optional[StatsRecorder] = None,
                      into: Optional[Subspace] = None) -> ImageResult:
        """The image restricted to a subset of the Kraus circuits.

        ``T(S)`` is the join of per-circuit contributions (Proposition
        1), so restricting ``circuits`` to one operation's Kraus family
        yields that operation's partial image.  With every circuit of
        the system this *is* ``image``.

        The image states are added straight into ``into`` (default: a
        fresh subspace), which is mutated in place and returned as the
        result: one Gram-Schmidt pass per image state, and no projector
        is formed.

        The manager collects garbage after each source state's images:
        what must survive — the accumulator, the sources, the cached
        operators and the executor's slices — is held by live TDD
        handles, and everything else that state's contractions built
        is garbage by then.
        """
        if subspace is None:
            subspace = self.qts.initial
        if stats is None:
            stats = StatsRecorder()
        circuits = list(circuits)
        result = into if into is not None else Subspace(self.qts.space)
        for state in list(subspace.basis):
            for circuit in circuits:
                for image_state in self._circuit_images(state, circuit,
                                                        stats):
                    stats.observe_tdd(image_state)
                    added = result.add_state(image_state)
                    if added is not None:
                        stats.observe_tdd(added)
            self.qts.manager.collect()
        return ImageResult(result, stats)

    # subclasses implement: all images of one basis state under the
    # Kraus circuit (one TDD for a plain circuit; partition methods may
    # fold several contributions before yielding)
    def _circuit_images(self, state: TDD, circuit,
                        stats: StatsRecorder):
        raise NotImplementedError
