"""Noise channel library."""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.errors import SystemError_
from repro.mc.config import CheckerConfig
from repro.systems import noise
from repro.systems.qts import QuantumTransitionSystem

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")


class TestKrausSets:
    @pytest.mark.parametrize("name", sorted(noise.CHANNELS))
    @pytest.mark.parametrize("p", [0.0, 0.25, 0.7, 1.0])
    def test_trace_preserving(self, name, p):
        kraus = noise.CHANNELS[name](p)
        assert noise.is_trace_preserving(kraus)

    def test_probability_bounds(self):
        with pytest.raises(SystemError_):
            noise.bit_flip_kraus(1.5)

    def test_amplitude_damping_non_unital(self):
        kraus = noise.amplitude_damping_kraus(0.5)
        # a non-unital channel moves the maximally mixed state
        rho = np.eye(2, dtype=complex) / 2
        out = sum(e @ rho @ e.conj().T for e in kraus)
        assert not np.allclose(out, rho)

    def test_depolarizing_shrinks_bloch(self):
        kraus = noise.depolarizing_kraus(0.5)
        rho = np.array([[1, 0], [0, 0]], dtype=complex)
        out = sum(e @ rho @ e.conj().T for e in kraus)
        assert np.isclose(np.trace(out), 1.0)
        assert out[0, 0].real < 1.0


class TestInsertChannel:
    def test_branches_count(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        branches = noise.insert_channel(circuit, 1, 0,
                                        noise.bit_flip_kraus(0.3))
        assert len(branches) == 2
        assert all(b.num_gates == 3 for b in branches)

    def test_position_bounds(self):
        circuit = QuantumCircuit(1).h(0)
        with pytest.raises(SystemError_):
            noise.insert_channel(circuit, 5, 0,
                                 noise.bit_flip_kraus(0.1))

    def test_matches_paper_qrw_construction(self):
        """insert_channel after the Hadamard reproduces the library's
        hand-built noisy QRW Kraus circuits (up to scalar placement)."""
        from repro.circuits.library import qrw_step, qrw_noisy_kraus_circuits
        from repro.sim.statevector import circuit_unitary
        step = qrw_step(4)
        branches = noise.insert_channel(
            step, 1, 0, noise.bit_flip_kraus(1 - 0.3), name="bf")
        keep, flip = qrw_noisy_kraus_circuits(4, 0.3)
        # branch 0 = sqrt(0.3) I-branch matches `keep`
        assert np.allclose(circuit_unitary(branches[0]),
                           circuit_unitary(keep), atol=1e-9)
        assert np.allclose(circuit_unitary(branches[1]),
                           circuit_unitary(flip), atol=1e-9)


class TestNoisyOperation:
    def test_builds_valid_operation(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        op = noise.noisy_operation("noisy", circuit, 1, 0,
                                   "depolarizing", 0.2)
        assert op.num_kraus == 4
        assert op.is_trace_nonincreasing()

    def test_unknown_channel(self):
        with pytest.raises(SystemError_):
            noise.noisy_operation("x", QuantumCircuit(1), 0, 0,
                                  "cosmic_rays", 0.1)

    def test_image_with_amplitude_damping(self):
        """Non-unital noise: |1> decays toward |0>; the image of
        span{|1>} under damping is span{|0>, |1>} for 0 < g < 1."""
        from repro.image.engine import compute_image
        from tests.helpers import dense_image_oracle, \
            assert_subspace_matches_dense
        circuit = QuantumCircuit(1)  # identity circuit + damping
        op = noise.noisy_operation("damp", circuit, 0, 0,
                                   "amplitude_damping", 0.3)
        qts = QuantumTransitionSystem(1, [op])
        qts.set_initial_basis_states([[1]])
        expected = dense_image_oracle(qts)
        for method in ("basic", "contraction"):
            qts2 = QuantumTransitionSystem(1, [noise.noisy_operation(
                "damp", QuantumCircuit(1), 0, 0, "amplitude_damping", 0.3)])
            qts2.set_initial_basis_states([[1]])
            result = compute_image(qts2, config=CheckerConfig(method=method))
            assert result.dimension == 2
            assert_subspace_matches_dense(result.subspace, expected)

    def test_phase_flip_preserves_basis_states(self):
        from repro.image.engine import compute_image
        circuit = QuantumCircuit(1)
        op = noise.noisy_operation("pf", circuit, 0, 0, "phase_flip", 0.4)
        qts = QuantumTransitionSystem(1, [op])
        qts.set_initial_basis_states([[0]])
        result = compute_image(qts, config=BASIC)
        assert result.dimension == 1  # Z|0> = |0>
