"""Circuit block partitioning for the contraction-partition scheme.

Implements the cut rule of Section V.B: the circuit is cut horizontally
into bands of at most ``k1`` qubits; walking the gates in time order, a
vertical cut is inserted (starting a new column of blocks) whenever
``k2`` multi-qubit gates crossing a horizontal cut have accumulated.
Every gate lands in exactly one block — the (band of its topmost qubit,
current column) cell — and the contraction of all block tensors equals
the circuit tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.wires import GateWiring
from repro.errors import PartitionError


@dataclass
class Block:
    """One cell of the partition grid."""

    band: int
    column: int
    wirings: List[GateWiring] = field(default_factory=list)

    @property
    def key(self) -> Tuple[int, int]:
        return (self.column, self.band)

    def __len__(self) -> int:
        return len(self.wirings)


def partition_circuit(circuit: QuantumCircuit, k1: int, k2: int,
                      wirings: Optional[List[GateWiring]] = None
                      ) -> List[Block]:
    """Cut ``circuit`` into blocks per the (k1, k2) rule.

    Returns blocks sorted by (column, band) — circuit time order;
    :func:`~repro.image.base.circuit_diagrams` stores their operators
    in the order a state folds through them.  ``wirings`` are the
    circuit's gate wirings when the caller has them already.
    """
    if k1 < 1:
        raise PartitionError("k1 must be >= 1")
    if k2 < 1:
        raise PartitionError("k2 must be >= 1")
    if wirings is None:
        wirings, _inputs, _outputs = circuit.wirings()

    def band_of(qubit: int) -> int:
        return qubit // k1

    blocks: Dict[Tuple[int, int], Block] = {}
    column = 0
    crossing = 0
    for wiring in wirings:
        qubits = wiring.gate.qubits
        if qubits:
            bands = {band_of(q) for q in qubits}
            home = min(bands)
        else:  # zero-qubit scalar gate
            bands = {0}
            home = 0
        cell = (home, column)
        if cell not in blocks:
            blocks[cell] = Block(band=home, column=column)
        blocks[cell].wirings.append(wiring)
        if len(bands) > 1:
            crossing += 1
            if crossing >= k2:
                column += 1
                crossing = 0
    return sorted(blocks.values(), key=lambda b: b.key)
