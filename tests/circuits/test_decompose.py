"""Gate decomposition passes (differential vs the dense simulator)."""

import math

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.decompose import (decompose_circuit, decompose_gate,
                                      zyz_decompose)
from repro.errors import CircuitError
from repro.gates import library as gl
from repro.gates import matrices as gm
from repro.sim.statevector import circuit_unitary


def unitary_of(gates, n):
    circuit = QuantumCircuit(n)
    circuit.extend(gates)
    return circuit_unitary(circuit)


def assert_equal_up_to_phase(u, v, atol=1e-8):
    ratio = u @ v.conj().T
    assert np.allclose(ratio, ratio[0, 0] * np.eye(u.shape[0]), atol=atol)
    assert np.isclose(abs(ratio[0, 0]), 1.0, atol=atol)


class TestZYZ:
    @pytest.mark.parametrize("name", ["H", "X", "Y", "Z", "S", "T", "SX"])
    def test_fixed_gates(self, name):
        u = getattr(gm, name)
        alpha, a, b, c = zyz_decompose(u)
        rebuilt = (cmath_exp(alpha) * gm.rz(a) @ gm.ry(b) @ gm.rz(c))
        assert np.allclose(rebuilt, u, atol=1e-9)

    def test_random_unitaries(self, rng):
        from scipy.stats import unitary_group
        for seed in range(5):
            u = unitary_group.rvs(2, random_state=seed)
            alpha, a, b, c = zyz_decompose(u)
            rebuilt = cmath_exp(alpha) * gm.rz(a) @ gm.ry(b) @ gm.rz(c)
            assert np.allclose(rebuilt, u, atol=1e-9)


def cmath_exp(alpha):
    return np.exp(1j * alpha)


class TestSingleGates:
    def test_basis_gates_pass_through(self):
        assert decompose_gate(gl.h(0)) == [gl.h(0)] or \
            decompose_gate(gl.h(0))[0].name == "h"

    def test_arbitrary_single_qubit(self, rng):
        from scipy.stats import unitary_group
        u = unitary_group.rvs(2, random_state=7)
        gate = gl.kraus("u", 0, u)
        gates = decompose_gate(gate)
        assert_equal_up_to_phase(unitary_of(gates, 1), u)

    def test_swap(self):
        gates = decompose_gate(gl.swap(0, 1))
        assert [g.name for g in gates] == ["cx", "cx", "cx"]
        assert np.allclose(unitary_of(gates, 2), gm.SWAP)

    def test_projector_rejected(self):
        with pytest.raises(CircuitError):
            decompose_gate(gl.proj(0, 1))


class TestControlled:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_cnx(self, k):
        gate = gl.cnx(list(range(k)), k)
        gates = decompose_gate(gate, keep_ccx=False)
        expect = gate.operator_matrix()
        # embed: controls 0..k-1, target k
        got = unitary_of(gates, k + 1)
        assert_equal_up_to_phase(got, _embed(expect, k + 1))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cnp(self, k):
        theta = 0.9
        gate = gl.cnu(list(range(k)), k, gm.phase(theta))
        gates = decompose_gate(gate, keep_ccx=False)
        got = unitary_of(gates, k + 1)
        assert_equal_up_to_phase(got, _embed(gate.operator_matrix(), k + 1))

    def test_ccx_kept_when_allowed(self):
        gates = decompose_gate(gl.ccx(0, 1, 2), keep_ccx=True)
        assert [g.name for g in gates] == ["ccx"]

    def test_anti_controls(self):
        gate = gl.cnx([0, 1], 2, control_states=[0, 1])
        gates = decompose_gate(gate, keep_ccx=True)
        got = unitary_of(gates, 3)
        assert_equal_up_to_phase(got, _embed(gate.operator_matrix(), 3))

    def test_controlled_general_unitary(self):
        from scipy.stats import unitary_group
        u = unitary_group.rvs(2, random_state=3)
        gate = gl.cnu([0], 1, u)
        gates = decompose_gate(gate)
        got = unitary_of(gates, 2)
        assert_equal_up_to_phase(got, gate.operator_matrix())

    @pytest.mark.parametrize("k", [2, 3])
    def test_multi_controlled_general_unitary(self, k):
        from scipy.stats import unitary_group
        u = unitary_group.rvs(2, random_state=11)
        gate = gl.cnu(list(range(k)), k, u)
        gates = decompose_gate(gate, keep_ccx=False)
        got = unitary_of(gates, k + 1)
        assert_equal_up_to_phase(got, _embed(gate.operator_matrix(), k + 1))


def _embed(op, n):
    """op acts on qubits 0..m-1 of an n-qubit register (m = log2)."""
    m = int(math.log2(op.shape[0]))
    return np.kron(op, np.eye(2 ** (n - m)))


class TestCircuits:
    def test_grover_decomposes_to_elementary(self):
        from repro.circuits.library import grover_iteration
        circuit = grover_iteration(4)
        lowered = decompose_circuit(circuit, keep_ccx=False)
        for gate in lowered.gates:
            assert len(gate.qubits) <= 2
        assert_equal_up_to_phase(circuit_unitary(lowered),
                                 circuit_unitary(circuit))

    def test_qrw_decomposes(self):
        from repro.circuits.library import qrw_step
        circuit = qrw_step(4)
        lowered = decompose_circuit(circuit, keep_ccx=True)
        for gate in lowered.gates:
            assert len(gate.qubits) <= 3
        assert_equal_up_to_phase(circuit_unitary(lowered),
                                 circuit_unitary(circuit))

    def test_lowered_circuit_exports_to_qasm(self):
        from repro.circuits.library import grover_iteration
        from repro.circuits.qasm import parse_qasm, to_qasm
        lowered = decompose_circuit(grover_iteration(3), keep_ccx=True)
        # scalar global-phase gates cannot be exported; drop them (the
        # QASM semantics is up-to-global-phase anyway)
        exportable = QuantumCircuit(lowered.num_qubits)
        exportable.extend(g for g in lowered.gates if not g.is_scalar)
        text = to_qasm(exportable)
        round_tripped = parse_qasm(text)
        assert_equal_up_to_phase(circuit_unitary(round_tripped),
                                 circuit_unitary(grover_iteration(3)))

    def test_image_computation_agrees_after_lowering(self):
        """The paper-level check: lowering the transition circuit must
        not change the image subspace."""
        from repro.circuits.library import grover_iteration
        from repro.image.engine import compute_image
        from repro.systems.operations import QuantumOperation
        from repro.systems.qts import QuantumTransitionSystem
        from tests.helpers import subspace_to_dense

        def build(lowered):
            circuit = grover_iteration(4)
            if lowered:
                circuit = decompose_circuit(circuit, keep_ccx=True)
            qts = QuantumTransitionSystem(
                4, [QuantumOperation.unitary("G", circuit)])
            qts.set_initial_basis_states([[0, 0, 0, 1]])
            return qts

        original = compute_image(build(False))
        lowered = compute_image(build(True))
        assert subspace_to_dense(original.subspace).equals(
            subspace_to_dense(lowered.subspace))
