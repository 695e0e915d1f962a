"""Density-matrix evolution and support extraction."""

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.sim.density import apply_kraus, channel_matrices, support_basis


class TestApplyKraus:
    def test_unitary_conjugation(self, rng):
        from repro.circuits.library import random_circuit
        from repro.sim.statevector import circuit_unitary
        u = circuit_unitary(random_circuit(2, 6, seed=3))
        rho = np.diag([0.5, 0.5, 0, 0]).astype(complex)
        out = apply_kraus(rho, [u])
        assert np.allclose(out, u @ rho @ u.conj().T)

    def test_trace_preserved_for_channel(self):
        p = 0.3
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        kraus = [np.sqrt(p) * np.eye(2), np.sqrt(1 - p) * x]
        rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        out = apply_kraus(rho, kraus)
        assert np.isclose(np.trace(out), np.trace(rho))

    def test_projective_channel_reduces_trace(self):
        p0 = np.diag([1, 0]).astype(complex)
        rho = 0.5 * np.eye(2, dtype=complex)
        out = apply_kraus(rho, [p0])
        assert np.isclose(np.trace(out), 0.5)


class TestSupport:
    def test_pure_state_support(self):
        v = np.array([1, 1j]) / np.sqrt(2)
        rho = np.outer(v, v.conj())
        basis = support_basis(rho)
        assert basis.shape == (2, 1)
        assert np.isclose(abs(np.vdot(basis[:, 0], v)), 1.0)

    def test_full_rank_support(self):
        basis = support_basis(np.eye(4, dtype=complex) / 4)
        assert basis.shape == (4, 4)

    def test_zero_support(self):
        basis = support_basis(np.zeros((4, 4), dtype=complex))
        assert basis.shape == (4, 0)

    def test_channel_matrices(self):
        circuits = [QuantumCircuit(1).x(0), QuantumCircuit(1).proj(0, 0)]
        mats = channel_matrices(circuits)
        assert np.allclose(mats[0], [[0, 1], [1, 0]])
        assert np.allclose(mats[1], [[1, 0], [0, 0]])
