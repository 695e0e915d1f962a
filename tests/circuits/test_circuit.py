"""QuantumCircuit container behaviour."""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.errors import CircuitError
from repro.gates import library as gl


class TestConstruction:
    def test_needs_positive_qubits(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(0)

    def test_append_bounds_check(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            circuit.h(2)
        with pytest.raises(CircuitError):
            circuit.cx(0, 5)

    def test_fluent_chaining(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1).z(1)
        assert circuit.num_gates == 3
        assert [g.name for g in circuit.gates] == ["h", "cx", "z"]

    def test_extend(self):
        circuit = QuantumCircuit(2)
        circuit.extend([gl.h(0), gl.x(1)])
        assert circuit.num_gates == 2


class TestQueries:
    def test_depth(self):
        circuit = QuantumCircuit(3).h(0).h(1).cx(0, 1).h(2)
        assert circuit.depth() == 2

    def test_depth_ignores_scalars(self):
        circuit = QuantumCircuit(1).scalar(0.5).h(0)
        assert circuit.depth() == 1

    def test_count_ops(self):
        circuit = QuantumCircuit(2).h(0).h(1).cx(0, 1)
        assert circuit.count_ops() == {"h": 2, "cx": 1}

    def test_is_unitary(self):
        assert QuantumCircuit(2).h(0).cx(0, 1).is_unitary()
        assert not QuantumCircuit(1).proj(0, 0).is_unitary()


class TestComposition:
    def test_copy_is_independent(self):
        a = QuantumCircuit(1).h(0)
        b = a.copy()
        b.x(0)
        assert a.num_gates == 1
        assert b.num_gates == 2

    def test_compose(self):
        a = QuantumCircuit(2).h(0)
        b = QuantumCircuit(2).cx(0, 1)
        combined = a.compose(b)
        assert [g.name for g in combined.gates] == ["h", "cx"]

    def test_compose_width_mismatch(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(2).compose(QuantumCircuit(3))

    def test_inverse_is_adjoint(self):
        from repro.sim.statevector import circuit_unitary
        circuit = QuantumCircuit(2).h(0).t(0).cx(0, 1).s(1)
        u = circuit_unitary(circuit)
        v = circuit_unitary(circuit.inverse())
        assert np.allclose(u @ v, np.eye(4), atol=1e-9)


class TestText:
    def test_to_text_shape(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        text = circuit.to_text()
        lines = text.splitlines()
        assert lines[0] == "qubits 2"
        assert lines[1].startswith("h")
        assert "ctrl[0]" in lines[2]

    def test_anti_control_marker(self):
        circuit = QuantumCircuit(2).cnx([0], 1, [0])
        assert "~0" in circuit.to_text()
