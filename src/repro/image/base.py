"""The image computer: one slice x block partition of each Kraus circuit.

The paper's image-computation methods are partitions of one circuit
tensor network, so one class runs them all.  It slices the ``k``
highest-degree internal indices of the circuit's index graph (addition
partition, Section V.A) and cuts each of the ``2^k`` sliced circuits
into blocks of at most ``k1`` qubits, starting a new column of blocks
after ``k2`` multi-qubit gates cross a band cut (contraction partition,
Section V.B).  Every block contracts once into a small operator TDD,
and the image of a state is the sum over the slices of the state
folded through that slice's blocks.

:func:`~repro.image.engine.make_computer` maps each method to a shape
(``n`` is the qubit count):

* ``basic`` — ``k = 0``, ``k1 = n`` (Algorithm 1);
* ``addition`` — ``k``, ``k1 = n``;
* ``contraction`` — ``k = 0``, ``k1``, ``k2``;
* ``hybrid`` — ``k``, ``k1``, ``k2`` (an extension beyond the paper).

With ``k1 >= n`` every gate lands in one block, so ``k2`` has no
effect: that block is the monolithic operator of the basic algorithm,
or of one addition slice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.network import register_circuit_indices
from repro.image.partition import partition_circuit
from repro.indices.index import Index
from repro.subspace.subspace import StateSpace, Subspace
from repro.systems.qts import QuantumTransitionSystem
from repro.tdd.manager import TDDManager
from repro.tdd.tdd import TDD
from repro.tensor.network import contract_network
from repro.tensor.ordering import greedy_order
from repro.utils.stats import StatsRecorder

#: per slice, the operator TDD of each block in fold order, then the
#: circuit's inputs and outputs
Diagrams = Tuple[List[List[TDD]], List[Index], List[Index]]


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


def select_slice_indices(wirings: Iterable[object], count: int,
                         open_indices: Iterable[Index]) -> List[Index]:
    """The ``count`` highest-degree internal indices of a circuit.

    In the circuit's index graph every gate is a clique over its legs,
    so an index's degree is the number of other indices it shares a
    gate with; ties go by name.  ``wirings`` are the gate wirings (only
    their ``indices`` are read) and ``open_indices`` the circuit's
    external legs, which are never sliced.
    """
    # each set holds its own index too: every degree reads one higher
    neighbours: Dict[Index, Set[Index]] = {}
    for wiring in wirings:
        for idx in wiring.indices:
            neighbours.setdefault(idx, set()).update(wiring.indices)
    banned = set(open_indices)
    ranked = sorted((idx for idx in neighbours if idx not in banned),
                    key=lambda idx: (-len(neighbours[idx]), idx.name))
    return ranked[:count]


def block_boundary(blocks: Sequence[Sequence[object]],
                   inputs: Sequence[Index],
                   outputs: Sequence[Index]) -> Set[Index]:
    """The indices a block leaves open: the circuit's inputs and
    outputs, and every index that more than one block uses."""
    boundary = set(inputs) | set(outputs)
    owner: Dict[Index, int] = {}
    for number, wirings in enumerate(blocks):
        for wiring in wirings:
            for idx in wiring.indices:
                if owner.setdefault(idx, number) != number:
                    boundary.add(idx)
    return boundary


def circuit_diagrams(circuit: QuantumCircuit, manager: TDDManager,
                     k: int, k1: int, k2: Optional[int],
                     observer=None) -> Diagrams:
    """Cut ``circuit`` in the shape ``(k, k1, k2)`` and contract the pieces.

    Returns ``(slices, inputs, outputs)``: one list of block operator
    TDDs per assignment of the ``k`` sliced indices (in
    ``itertools.product`` order).  Each list is in the order a state
    over the circuit inputs folds through it: the
    :func:`~repro.tensor.ordering.greedy_order` of the inputs and the
    slice's blocks, worked out here once so no image pays for it.  The
    gates inside a block fold in time order.  With ``k = 0`` nothing is
    sliced, and with ``k1 >= n`` the circuit is one block and is not
    partitioned; a circuit without gates has no block at all.
    ``observer`` is called with every intermediate TDD.
    """
    wirings, inputs, outputs = register_circuit_indices(circuit, manager)
    sliced = (select_slice_indices(wirings, k, set(inputs) | set(outputs))
              if k else [])
    if k1 >= circuit.num_qubits:
        blocks = [wirings] if wirings else []
    else:
        blocks = [block.wirings
                  for block in partition_circuit(circuit, k1, k2, wirings)]
    boundary = block_boundary(blocks, inputs, outputs)
    slices: List[List[TDD]] = []
    for bits in itertools.product((0, 1), repeat=len(sliced)):
        assignment = dict(zip(sliced, bits))
        operators: List[TDD] = []
        for block in blocks:
            tensors = []
            for wiring in block:
                tensor = wiring.gate.to_tdd(manager, wiring.control_indices,
                                            wiring.target_in,
                                            wiring.target_out)
                local = {idx: bit for idx, bit in assignment.items()
                         if idx in tensor.indices}
                tensors.append(tensor.slice(local) if local else tensor)
            operators.append(contract_network(tensors, boundary, observer))
        order = greedy_order([inputs] + [op.indices for op in operators],
                             set(outputs))
        slices.append([operators[pos - 1] for pos in order[1:]])
    return slices, inputs, outputs


class ImageComputerBase:
    """The image computer of one system in one slice x block shape.

    ``k`` indices are sliced; ``k1`` and ``k2`` cut the blocks (``k2``
    is unused, and may be ``None``, when ``k1`` is at least the qubit
    count).  The parameters are validated by
    :class:`~repro.mc.config.CheckerConfig`, through
    :func:`~repro.image.engine.make_computer`.  The diagrams of a
    Kraus circuit live in the system's one operator cache
    (:meth:`~repro.systems.qts.QuantumTransitionSystem.operator`), keyed
    by :meth:`shape`, so every computer, check and witness of one system
    — and of its adjoint — builds a circuit's diagrams once per shape,
    whichever method asked for it.
    """

    def __init__(self, qts: QuantumTransitionSystem, k: int, k1: int,
                 k2: Optional[int]) -> None:
        self.qts = qts
        n = qts.num_qubits
        self.k = k
        self.k1 = min(k1, n)
        self.k2 = k2 if self.k1 < n else None

    def shape(self) -> tuple:
        """How this computer cuts a circuit: ``(k, k1, k2)``, with ``k1``
        capped at the qubit count and ``k2 = None`` once one block holds
        every gate."""
        return (self.k, self.k1, self.k2)

    def image(self, subspace: Optional[Subspace] = None,
              stats: Optional[StatsRecorder] = None) -> ImageResult:
        """Compute ``T(S)`` (defaults: ``S`` = the system's initial space).

        Only the system's :meth:`~repro.systems.qts.
        QuantumTransitionSystem.image_circuits` are imaged, one per class
        of proportional Kraus circuits; the dropped ones add nothing to
        the span.  The size of the image projector is observed into
        ``max_nodes``, as Table I counts it.
        """
        if stats is None:
            stats = StatsRecorder()
        result = self.partial_image(subspace, self.qts.image_circuits(),
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

        The circuits' diagrams are built first (:meth:`prepare_family`,
        skipped when there is nothing to image), and the manager
        collects garbage after each source state's images: what must
        survive — the accumulator, the sources and the cached
        operators — is held by live TDD handles, and everything else
        that state's contractions built is garbage by then.
        """
        if subspace is None:
            subspace = self.qts.initial
        if stats is None:
            stats = StatsRecorder()
        circuits = list(circuits)
        result = into if into is not None else Subspace(self.qts.space)
        if subspace.basis and not result.is_full():
            self.prepare_family(circuits, stats)
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

    def prepare_family(self, circuits: Sequence[QuantumCircuit],
                       stats: StatsRecorder) -> None:
        """Build the diagrams of every circuit of a Kraus family that the
        operator cache lacks, then collect the builds' garbage.

        The circuits build in order, so a later one reuses the memo
        entries of an earlier one; the one collection after the last
        build (none when everything was cached) clears their garbage
        before any image runs, so the live-node peak is the larger of
        the build's and the image's, not their sum.  Every path that
        images through a computer calls this before its first image, so
        it also records ``stats.extra["kraus_imaged"]``, the number of
        circuits about to be imaged, next to
        ``stats.extra["kraus_circuits"]``, the system's Kraus circuit
        count.
        """
        stats.extra["kraus_imaged"] = len(circuits)
        stats.extra["kraus_circuits"] = len(self.qts.all_kraus_circuits())
        shape = self.shape()
        missing = [circuit for circuit in circuits
                   if not self.qts.has_operator(shape, circuit)]
        for circuit in missing:
            self.prepare(circuit, stats)
        if missing:
            self.qts.manager.collect()

    def prepare(self, circuit: QuantumCircuit,
                stats: StatsRecorder) -> Diagrams:
        """``circuit``'s diagrams in this computer's shape, built into the
        operator cache on first use (:meth:`prepare_family` builds a
        whole family and then collects the builds' garbage).

        The build's peak node count is folded into ``stats``, whichever
        computer built it, and ``stats.extra["blocks"]`` records the
        block count of a slice.
        """
        diagrams, peak = self.qts.operator(
            self.shape(), circuit,
            lambda observer: circuit_diagrams(circuit, self.qts.manager,
                                              *self.shape(), observer))
        stats.observe_nodes(peak)
        slices = diagrams[0]
        stats.extra.setdefault("blocks", len(slices[0]))
        return diagrams

    def circuit_image(self, state: TDD, circuit: QuantumCircuit,
                      stats: StatsRecorder) -> TDD:
        """``E |state>`` for the Kraus circuit ``E``, over the kets.

        ``state`` folds through each slice's blocks in their stored
        order, and the slices' contributions add up to the image.  The
        witness extractor and the warm-start certificate apply single
        circuits through it too.
        """
        slices, _inputs, outputs = self.prepare(circuit, stats)
        total = None
        for blocks in slices:
            contribution = contract_network([state] + blocks, outputs,
                                            stats.observe_tdd)
            stats.contractions += len(blocks)
            if total is None:
                total = contribution
            else:
                total = total + contribution
                stats.observe_tdd(total)
        stats.additions += len(slices) - 1
        return rename_outputs_to_kets(self.qts.space, total, outputs)
