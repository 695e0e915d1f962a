"""Extension circuit families: QPE, W state, Cuccaro adder, hidden shift."""

import math

import numpy as np
import pytest

from repro.circuits.library.extensions import (cuccaro_adder,
                                               hidden_shift_circuit,
                                               qpe_circuit, w_state_circuit)
from repro.errors import CircuitError
from repro.mc.config import CheckerConfig
from repro.sim.statevector import basis_state_vector, circuit_unitary


class TestQPE:
    @pytest.mark.parametrize("k", [0, 1, 3, 5, 7])
    def test_exact_phase_read_out(self, k):
        m = 3
        circuit = qpe_circuit(m, k / 2 ** m)
        start = basis_state_vector(m + 1, [0] * m + [1]).reshape(-1)
        out = circuit_unitary(circuit) @ start
        probs = np.abs(out) ** 2
        best = int(np.argmax(probs))
        value = best >> 1  # drop the eigenstate qubit
        assert probs[best] > 0.99
        assert value == k

    def test_inexact_phase_concentrates(self):
        m = 4
        phase = 0.3  # not a multiple of 1/16
        circuit = qpe_circuit(m, phase)
        start = basis_state_vector(m + 1, [0] * m + [1]).reshape(-1)
        out = circuit_unitary(circuit) @ start
        probs = np.abs(out) ** 2
        best = int(np.argmax(probs)) >> 1
        assert abs(best / 2 ** m - phase) < 1 / 2 ** m

    def test_needs_counting_qubit(self):
        with pytest.raises(CircuitError):
            qpe_circuit(0, 0.5)


class TestWState:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_prepares_w_state(self, n):
        circuit = w_state_circuit(n)
        start = basis_state_vector(n, [0] * n).reshape(-1)
        out = circuit_unitary(circuit) @ start
        expect = np.zeros(2 ** n)
        for i in range(n):
            expect[1 << (n - 1 - i)] = 1 / math.sqrt(n)
        assert np.isclose(abs(np.vdot(out, expect)), 1.0, atol=1e-9)

    def test_minimum_size(self):
        with pytest.raises(CircuitError):
            w_state_circuit(1)


class TestCuccaroAdder:
    @pytest.mark.parametrize("a,b", [(0, 0), (1, 2), (3, 3), (2, 3)])
    def test_addition_two_bits(self, a, b):
        n = 2
        circuit = cuccaro_adder(n)
        u = circuit_unitary(circuit)
        bits = [0] * (2 * n + 2)
        for i in range(n):
            bits[1 + 2 * i] = (b >> i) & 1
            bits[2 + 2 * i] = (a >> i) & 1
        out = u @ basis_state_vector(2 * n + 2, bits).reshape(-1)
        idx = int(np.argmax(np.abs(out)))
        obits = [int(x) for x in format(idx, f"0{2 * n + 2}b")]
        b_out = (sum(obits[1 + 2 * i] << i for i in range(n))
                 + (obits[2 * n + 1] << n))
        a_out = sum(obits[2 + 2 * i] << i for i in range(n))
        assert abs(out[idx]) > 0.999
        assert (a_out, b_out) == (a, a + b)

    def test_gate_mix(self):
        circuit = cuccaro_adder(3)
        ops = circuit.count_ops()
        assert set(ops) == {"cx", "ccx"}

    def test_is_unitary(self):
        assert cuccaro_adder(2).is_unitary()


class TestHiddenShift:
    @pytest.mark.parametrize("shift", [[1, 1], [1, 0], [0, 1]])
    def test_recovers_shift_two_qubits(self, shift):
        circuit = hidden_shift_circuit(2, shift)
        out = circuit_unitary(circuit) @ basis_state_vector(
            2, [0, 0]).reshape(-1)
        idx = int(np.argmax(np.abs(out)))
        assert abs(out[idx]) > 0.999
        assert [int(x) for x in format(idx, "02b")] == shift

    def test_recovers_shift_four_qubits(self):
        shift = [1, 0, 1, 1]
        circuit = hidden_shift_circuit(4, shift)
        out = circuit_unitary(circuit) @ basis_state_vector(
            4, [0] * 4).reshape(-1)
        idx = int(np.argmax(np.abs(out)))
        assert [int(x) for x in format(idx, "04b")] == shift

    def test_odd_width_rejected(self):
        with pytest.raises(CircuitError):
            hidden_shift_circuit(3)


class TestModels:
    def test_qpe_image(self):
        """Image computation recovers the phase register state."""
        from repro.image.engine import compute_image
        from repro.systems import models
        qts = models.qpe_qts(3, 5 / 8)
        image = compute_image(qts).subspace
        assert image.dimension == 1
        expected = qts.space.basis_state([1, 0, 1, 1])  # |5>|1>
        assert image.contains_state(expected)

    @pytest.mark.parametrize("model,size,options", [
        ("wstate", 4, {}),
        ("qpe", 3, {"phase": 5 / 8}),
        ("hiddenshift", 4, {}),
    ])
    def test_image_methods_agree(self, model, size, options):
        from repro.systems import models
        from tests.helpers import (assert_subspace_matches_dense,
                                   dense_image_oracle)
        from repro.image.engine import compute_image
        expected = dense_image_oracle(
            models.build_model(model, size, **options))
        for method, params in (("basic", {}),
                               ("contraction", {"k1": 2, "k2": 2})):
            result = compute_image(models.build_model(model, size, **options),
                                   config=CheckerConfig(method=method,
                                                        method_params=params))
            assert_subspace_matches_dense(result.subspace, expected)

    def test_adder_image_is_sum_state(self):
        from repro.image.engine import compute_image
        from repro.systems import models
        qts = models.adder_qts(2, a_value=2, b_value=3)
        config = CheckerConfig(method="contraction",
                               method_params={"k1": 3, "k2": 3})
        image = compute_image(qts, config=config).subspace
        assert image.dimension == 1
        bits = [0] * 6
        total = 5
        for i in range(2):
            bits[1 + 2 * i] = (total >> i) & 1
            bits[2 + 2 * i] = (2 >> i) & 1
        bits[5] = (total >> 2) & 1
        assert image.contains_state(qts.space.basis_state(bits))

    def test_hidden_shift_image(self):
        from repro.image.engine import compute_image
        from repro.systems import models
        shift = [1, 0, 1, 0]
        qts = models.hidden_shift_qts(4, shift)
        image = compute_image(qts).subspace
        assert image.dimension == 1
        assert image.contains_state(qts.space.basis_state(shift))
