"""Dense statevector simulator."""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.gates import library as gl
from repro.sim.statevector import (apply_gate, basis_state_from_int,
                                   basis_state_vector, circuit_unitary,
                                   run_circuit, uniform_state)


class TestStates:
    def test_basis_state(self):
        state = basis_state_vector(3, [1, 0, 1])
        assert state[1, 0, 1] == 1
        assert np.abs(state).sum() == 1

    def test_basis_state_length_check(self):
        with pytest.raises(ValueError):
            basis_state_vector(2, [0, 1, 1])

    def test_basis_from_int(self):
        assert basis_state_from_int(3, 5)[1, 0, 1] == 1

    def test_uniform(self):
        state = uniform_state(3)
        assert np.allclose(state.reshape(-1),
                           np.full(8, 8 ** -0.5))


class TestApplyGate:
    def test_h_on_first(self):
        state = basis_state_vector(2, [0, 0])
        out = apply_gate(state, gl.h(0), 2)
        expect = np.zeros((2, 2))
        expect[0, 0] = expect[1, 0] = 2 ** -0.5
        assert np.allclose(out, expect)

    def test_x_on_second(self):
        state = basis_state_vector(2, [0, 0])
        out = apply_gate(state, gl.x(1), 2)
        assert out[0, 1] == 1

    def test_cx_both_orders(self):
        state = basis_state_vector(2, [1, 0])
        out = apply_gate(state, gl.cx(0, 1), 2)
        assert out[1, 1] == 1
        state = basis_state_vector(2, [0, 1])
        out = apply_gate(state, gl.cx(1, 0), 2)
        assert out[1, 1] == 1

    def test_scalar_gate(self):
        state = basis_state_vector(1, [0])
        out = apply_gate(state, gl.scalar(0.5j), 1)
        assert np.allclose(out, 0.5j * state)

    def test_batch_axis_preserved(self):
        batch = np.eye(4, dtype=complex).reshape(2, 2, 4)
        out = apply_gate(batch, gl.x(0), 2)
        assert out.shape == (2, 2, 4)
        assert out[1, 0, 0] == 1  # |00> column got flipped to |10>


class TestCircuits:
    def test_run_circuit_bell(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        out = run_circuit(circuit, basis_state_vector(2, [0, 0]))
        vec = out.reshape(-1)
        assert np.allclose(vec, [2 ** -0.5, 0, 0, 2 ** -0.5])

    def test_circuit_unitary_identity(self):
        assert np.allclose(circuit_unitary(QuantumCircuit(2)), np.eye(4))

    def test_circuit_unitary_composition(self, rng):
        from repro.circuits.library import random_circuit
        a = random_circuit(3, 8, seed=1)
        b = random_circuit(3, 8, seed=2)
        ua, ub = circuit_unitary(a), circuit_unitary(b)
        uc = circuit_unitary(a.compose(b))
        assert np.allclose(uc, ub @ ua, atol=1e-9)

    def test_nonunitary_circuit(self):
        circuit = QuantumCircuit(1).proj(0, 1)
        u = circuit_unitary(circuit)
        assert np.allclose(u, [[0, 0], [0, 1]])
