"""Circuit → tensor network conversion.

The functions here realise the paper's "quantum circuits are tensor
networks" view (Section II.B, Fig. 2): each gate becomes one tensor
whose legs are wire indices assigned by
:mod:`repro.circuits.wires`, and the circuit's external legs (qubit
inputs ``x_i^0`` and outputs) stay open.  The TDD build registers the
wire indices here (:func:`register_circuit_indices`) and cuts the
network in :func:`repro.image.base.circuit_diagrams`; the dense
network is its reference oracle.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.wires import GateWiring, wire_indices
from repro.indices.index import Index
from repro.tdd.manager import TDDManager
from repro.tensor.dense import DenseTensor
from repro.tensor.network import contract_network


#: ``circuit.wirings()``: the gate wirings, inputs and outputs
Wired = Tuple[List[GateWiring], List[Index], List[Index]]


def register_circuit_indices(circuit: QuantumCircuit,
                             manager: TDDManager,
                             wired: Optional[Wired] = None) -> Wired:
    """Register every wire index of ``circuit``, qubit-major.

    Must be called before building any gate TDD of the circuit so the
    global order is the (qubit, time) order.  ``wired`` is
    ``circuit.wirings()`` when the caller has it already; the wiring
    is returned, so one build wires its circuit once.
    """
    if wired is None:
        wired = circuit.wirings()
    wirings, inputs, _outputs = wired
    manager.register_all(wire_indices(wirings, inputs))
    return wired


def circuit_to_dense(circuit: QuantumCircuit
                     ) -> Tuple[DenseTensor, List[Index], List[Index]]:
    """The whole circuit as one dense operator tensor: one dense tensor
    per gate, folded with the circuit inputs and outputs open (small
    circuits only; reference oracle of the TDD build)."""
    import numpy as np

    wirings, inputs, outputs = circuit.wirings()
    tensors = [w.gate.to_dense(w.control_indices, w.target_in, w.target_out)
               for w in wirings]
    if not tensors:
        tensors = [DenseTensor(np.array(1 + 0j), ())]
    operator = contract_network(tensors, set(inputs) | set(outputs))
    return operator, inputs, outputs
