"""Circuit -> tensor network: TDD path vs dense path vs simulator."""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import random_circuit
from repro.circuits.network import circuit_to_dense
from repro.image.base import circuit_diagrams
from repro.sim.statevector import basis_state_from_int, circuit_unitary
from repro.tdd import construction as tc
from repro.tdd.manager import TDDManager
from repro.utils.bitops import int_to_bits


def one_block(circuit, manager, observer=None):
    """The basic method's monolithic operator: the circuit as one block."""
    ((operator,),), inputs, outputs = circuit_diagrams(
        circuit, manager, 0, circuit.num_qubits, None, observer)
    return operator, inputs, outputs


def apply_operator_tdd(manager, operator, inputs, outputs, basis_int, n):
    """Contract a basis state through an operator TDD; dense result."""
    bits = int_to_bits(basis_int, n)
    psi = tc.basis_state(manager, inputs, bits)
    sum_over = [i for i in inputs if i not in outputs]
    out = psi.contract(operator, sum_over)
    return out.to_numpy().reshape(-1)


@pytest.mark.parametrize("seed", range(5))
def test_random_circuit_tdd_matches_simulator(seed):
    n = 4
    circuit = random_circuit(n, 12, seed=seed)
    u = circuit_unitary(circuit)
    manager = TDDManager()
    operator, inputs, outputs = one_block(circuit, manager)
    for basis in (0, 3, 7, 15):
        got = apply_operator_tdd(manager, operator, inputs, outputs,
                                 basis, n)
        expect = u @ basis_state_from_int(n, basis).reshape(-1)
        assert np.allclose(got, expect, atol=1e-8), (seed, basis)


@pytest.mark.parametrize("seed", range(3))
def test_dense_network_matches_tdd_network(seed):
    circuit = random_circuit(3, 10, seed=seed)
    dense_op, d_in, d_out = circuit_to_dense(circuit)
    manager = TDDManager()
    tdd_op, t_in, t_out = one_block(circuit, manager)
    aligned = dense_op.transpose_like(
        sorted(dense_op.indices, key=manager.order.level))
    assert tuple(i.name for i in aligned.indices) == tdd_op.index_names
    assert np.allclose(aligned.array, tdd_op.to_numpy(), atol=1e-9)


def test_projector_circuit_norm_drops():
    circuit = QuantumCircuit(1).h(0).proj(0, 0)
    u = circuit_unitary(circuit)
    # |0> -> H -> |+> -> proj0 -> |0>/sqrt(2)
    out = u @ np.array([1, 0], dtype=complex)
    assert np.allclose(out, [1 / np.sqrt(2), 0])


def test_observer_reports_intermediates():
    circuit = QuantumCircuit(2).h(0).cx(0, 1).h(1)
    manager = TDDManager()
    sizes = []
    one_block(circuit, manager, observer=lambda t: sizes.append(t.size()))
    assert len(sizes) == circuit.num_gates - 1  # pairwise folds
