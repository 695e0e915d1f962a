"""Property tests across the circuit pipeline.

Random circuits through: TDD operator vs dense simulator and network
contraction-order invariance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.library import random_circuit
from repro.circuits.network import register_circuit_indices
from repro.image.base import circuit_diagrams
from repro.sim.statevector import circuit_unitary
from repro.tdd.manager import TDDManager
from repro.tensor.network import contract_network

SEEDS = st.integers(min_value=0, max_value=10 ** 6)


def gate_network(circuit, manager):
    """One TDD per gate, and the open legs: the circuit's inputs and
    outputs."""
    wirings, inputs, outputs = register_circuit_indices(circuit, manager)
    tensors = [w.gate.to_tdd(manager, w.control_indices, w.target_in,
                             w.target_out) for w in wirings]
    return tensors, set(inputs) | set(outputs)


class TestOperatorConsistency:
    @given(SEEDS)
    @settings(max_examples=10)
    def test_tdd_operator_norm_preserving(self, seed):
        """Unitary circuits: the operator TDD applied to each basis
        state must preserve the norm."""
        from repro.tdd import construction as tc
        from repro.utils.bitops import int_to_bits
        circuit = random_circuit(3, 8, seed=seed)
        manager = TDDManager()
        ((operator,),), inputs, outputs = circuit_diagrams(
            circuit, manager, 0, 3, None)
        for basis in (0, 5, 7):
            psi = tc.basis_state(manager, inputs, int_to_bits(basis, 3))
            out = psi.contract(operator,
                               [i for i in inputs if i not in outputs])
            assert np.isclose(out.norm(), 1.0, atol=1e-8)

    @given(SEEDS)
    @settings(max_examples=8)
    def test_inverse_circuit_gives_adjoint_operator(self, seed):
        circuit = random_circuit(3, 8, seed=seed)
        u = circuit_unitary(circuit)
        v = circuit_unitary(circuit.inverse())
        assert np.allclose(u @ v, np.eye(8), atol=1e-8)


class TestNetworkOrderInvariance:
    @given(SEEDS)
    @settings(max_examples=8)
    def test_any_fold_order_same_tensor(self, seed):
        """Contracting the gate network in a random order must produce
        the same operator tensor (the multiplicity rule keeps shared
        indices alive exactly as long as needed)."""
        circuit = random_circuit(3, 8, seed=seed)
        manager = TDDManager()
        tensors, open_indices = gate_network(circuit, manager)
        reference = contract_network(tensors, open_indices)
        rng = np.random.default_rng(seed)
        shuffled = [tensors[int(pos)]
                    for pos in rng.permutation(len(tensors))]
        assert reference.allclose(contract_network(shuffled, open_indices))
