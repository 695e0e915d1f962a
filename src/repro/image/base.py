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
    """Common state for the four algorithms: the system and its operators.

    Every computer keeps the diagrams it cuts from a Kraus circuit in
    the system's one operator cache
    (:meth:`~repro.systems.qts.QuantumTransitionSystem.operator`),
    keyed by :meth:`shape`, so every computer, check and witness of one
    system — and of its adjoint — builds a circuit's diagrams once per
    shape.  Every Kraus circuit of a family runs through the method's
    own partition, and every contraction is one call of the TDD kernel.
    """

    method: str = "abstract"

    def __init__(self, qts: QuantumTransitionSystem) -> None:
        self.qts = qts

    def shape(self) -> tuple:
        """How this computer cuts a circuit: the method and its sizes."""
        return (self.method,)

    def _cached(self, circuit, build, stats: StatsRecorder):
        """``circuit``'s diagrams in this computer's shape (built once
        per system); the build's peak node count is folded into
        ``stats``, whichever computer built it."""
        diagrams, peak = self.qts.operator(self.shape(), circuit, build)
        stats.observe_nodes(peak)
        return diagrams

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
        is formed.  Once ``into`` spans the whole space no further
        image can add to it, so no further source state is imaged.

        The manager collects garbage after each source state's images:
        what must survive — the accumulator, the sources and the cached
        operators — is held by live TDD handles, and everything else
        that state's contractions built is garbage by then.
        """
        if subspace is None:
            subspace = self.qts.initial
        if stats is None:
            stats = StatsRecorder()
        circuits = list(circuits)
        result = into if into is not None else Subspace(self.qts.space)
        for state in list(subspace.basis):
            if result.is_full():
                break
            for circuit in circuits:
                if result.is_full():
                    break
                image_state = self.circuit_image(state, circuit, stats)
                stats.observe_tdd(image_state)
                added = result.add_state(image_state)
                if added is not None:
                    stats.observe_tdd(added)
            self.qts.manager.collect()
        return ImageResult(result, stats)

    def circuit_image(self, state: TDD, circuit,
                      stats: StatsRecorder) -> TDD:
        """``E |state>`` for the Kraus circuit ``E``, over the kets.

        Subclasses implement it through their own partition of the
        circuit; the witness extractor applies single circuits through
        it too.
        """
        raise NotImplementedError
