"""Circuit → tensor network conversion (TDD or dense backends).

The functions here realise the paper's "quantum circuits are tensor
networks" view (Section II.B, Fig. 2): each gate becomes one tensor
whose legs are wire indices assigned by
:mod:`repro.circuits.wires`, and the circuit's external legs (qubit
inputs ``x_i^0`` and outputs) stay open.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.wires import GateWiring, wire_indices
from repro.indices.index import Index
from repro.tdd.manager import TDDManager
from repro.tdd.tdd import TDD
from repro.tdd import construction as tc
from repro.tensor.dense import DenseTensor
from repro.tensor.network import TensorNetwork


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


def circuit_to_tdd_network(circuit: QuantumCircuit, manager: TDDManager,
                           wired: Optional[Wired] = None
                           ) -> Tuple[TensorNetwork, List[Index], List[Index]]:
    """One TDD per gate; open legs are the circuit inputs and outputs.

    ``wired`` is ``circuit.wirings()`` when the caller has it already.
    """
    wirings, inputs, outputs = register_circuit_indices(circuit, manager,
                                                        wired)
    tensors = [w.gate.to_tdd(manager, w.control_indices, w.target_in,
                             w.target_out)
               for w in wirings]
    if not tensors:
        tensors = [tc.scalar(manager, 1)]
    network = TensorNetwork(tensors, set(inputs) | set(outputs))
    return network, inputs, outputs


def circuit_to_dense_network(circuit: QuantumCircuit
                             ) -> Tuple[TensorNetwork, List[Index],
                                        List[Index]]:
    """Dense twin of :func:`circuit_to_tdd_network` (reference oracle)."""
    import numpy as np

    wirings, inputs, outputs = circuit.wirings()
    tensors = [w.gate.to_dense(w.control_indices, w.target_in, w.target_out)
               for w in wirings]
    if not tensors:
        tensors = [DenseTensor(np.array(1 + 0j), ())]
    network = TensorNetwork(tensors, set(inputs) | set(outputs))
    return network, inputs, outputs


def circuit_to_tdd(circuit: QuantumCircuit, manager: TDDManager,
                   observer=None
                   ) -> Tuple[TDD, List[Index], List[Index]]:
    """Contract the whole circuit into one (monolithic) operator TDD.

    This is what the *basic* image computation algorithm does first; the
    partition schemes exist to avoid it.  ``observer`` (if given) is
    called with every intermediate TDD, letting the caller track the
    peak node count.
    """
    network, inputs, outputs = circuit_to_tdd_network(circuit, manager)
    operator = network.contract_all(observer=observer)
    if not isinstance(operator, TDD):  # pragma: no cover - type guard
        raise TypeError("expected a TDD from the network contraction")
    return operator, inputs, outputs


def circuit_to_dense(circuit: QuantumCircuit
                     ) -> Tuple[DenseTensor, List[Index], List[Index]]:
    """Dense twin of :func:`circuit_to_tdd` (small circuits only)."""
    network, inputs, outputs = circuit_to_dense_network(circuit)
    operator = network.contract_all()
    return operator, inputs, outputs
