"""Proportionality classes of Kraus circuits: what the engine images."""

import math

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.gates import library as gl
from repro.gates import matrices as gm
from repro.gates.gate import Gate
from repro.sim.statevector import circuit_unitary
from repro.systems.models import build_model
from repro.systems.operations import QuantumOperation
from repro.systems.qts import QuantumTransitionSystem, kraus_class


def walk(*gates):
    """A 2-qubit circuit: Hadamard, the given gates, then a CX."""
    circuit = QuantumCircuit(2).h(0)
    circuit.extend(gates)
    return circuit.cx(0, 1)


def positions(qts):
    """Where the image circuits sit in ``all_kraus_circuits()``."""
    circuits = qts.all_kraus_circuits()
    return [next(i for i, c in enumerate(circuits) if c is rep)
            for rep in qts.image_circuits()]


def system(*families):
    ops = [QuantumOperation(f"T{number}", circuits)
           for number, circuits in enumerate(families, start=1)]
    return QuantumTransitionSystem(2, ops)


class TestScalarValue:
    def test_scalar_gate(self):
        assert gl.scalar(0.5j).scalar_value() == 0.5j

    def test_uncontrolled_multiple_of_identity(self):
        assert gl.scaled_i(1, 0.25).scalar_value() == 0.25
        assert Gate("ii", (0, 1), -2 * np.eye(4)).scalar_value() == -2

    def test_other_gates(self):
        assert gl.scaled_x(0, 0.5).scalar_value() is None
        assert gl.h(0).scalar_value() is None
        assert gl.z(0).scalar_value() is None
        assert gl.cnu([1], 0, 0.5 * gm.I).scalar_value() is None


class TestClassKey:
    def test_scalar_and_identity_gates_fold_into_the_factor(self):
        plain = kraus_class(walk())
        scaled = kraus_class(walk(gl.scalar(0.5), gl.scaled_i(1, -0.25)))
        assert scaled[0] == plain[0]
        assert plain[1] == 1
        assert scaled[1] == pytest.approx(-0.125)

    def test_controlled_identity_does_not_fold(self):
        controlled = walk(gl.cnu([1], 0, 0.5 * gm.I, name="kI"))
        assert kraus_class(controlled)[0] != kraus_class(walk())[0]

    def test_scaled_x_does_not_fold(self):
        assert (kraus_class(walk(gl.scaled_x(0, 0.5)))[0]
                != kraus_class(walk(gl.x(0)))[0])

    def test_signed_zero_bytes_do_not_fold(self):
        positive = Gate("u", (0,), np.array([[0.0, 1.0], [1.0, 0.0]]))
        negative = Gate("u", (0,), np.array([[-0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(positive.matrix, negative.matrix)
        assert (kraus_class(walk(positive))[0]
                != kraus_class(walk(negative))[0])

    def test_gate_names_are_ignored(self):
        renamed = walk(Gate("flip", (0,), gm.X), gl.scalar(2))
        renamed.gates[0] = Gate("hadamard", (0,), gm.H)
        key, factor = kraus_class(renamed)
        assert key == kraus_class(walk(gl.x(0)))[0]
        assert factor == 2


class TestImageCircuits:
    def test_largest_factor_represents_its_class(self):
        small = walk(gl.scalar(0.5))
        large = walk(gl.scalar(-0.9))
        other = walk(gl.x(1))
        qts = system([small, other], [large])
        assert qts.image_circuits() == [other, large]
        assert qts.representative(small) == (large,
                                             pytest.approx(-0.5 / 0.9))
        assert qts.representative(large) == (large, 1)
        assert qts.representative(other) == (other, 1)

    def test_first_member_wins_a_tie(self):
        first = walk(gl.scalar(0.5))
        second = walk(gl.scalar(-0.5))
        qts = system([first], [second])
        assert qts.image_circuits() == [first]
        assert qts.representative(second) == (first, -1)

    def test_zero_factor_drops_the_circuit(self):
        dead = walk(gl.scalar(0.0))
        also_dead = walk(gl.scaled_i(1, 0.0))
        live = walk(gl.x(1))
        qts = system([dead, live], [also_dead])
        assert qts.image_circuits() == [live]
        assert qts.representative(dead) is None
        assert qts.representative(also_dead) is None

    def test_shared_circuit_object_is_imaged_once(self):
        shared = walk()
        qts = system([shared], [shared])
        assert qts.image_circuits() == [shared]

    def test_members_are_multiples_of_their_representative(self):
        qts = build_model("qrw", 3, noise_probability=0.3)
        for circuit in qts.all_kraus_circuits():
            rep, ratio = qts.representative(circuit)
            assert abs(ratio) <= 1
            assert np.allclose(circuit_unitary(circuit),
                               ratio * circuit_unitary(rep))

    def test_memoised_per_system(self):
        qts = build_model("qrw", 3)
        assert qts.image_circuits() is qts.image_circuits()

    @pytest.mark.parametrize("model, total, imaged", [
        ("qrw", 3, 2), ("bitflip", 4, 4), ("grover", 1, 1)])
    def test_adjoint_classes_mirror_the_forward_ones(self, model, total,
                                                     imaged):
        qts = build_model(model, 3)
        adjoint = qts.adjoint()
        assert len(qts.all_kraus_circuits()) == total
        assert len(qts.image_circuits()) == imaged
        assert len(adjoint.image_circuits()) == imaged
        assert positions(adjoint) == positions(qts)

    def test_qrw_drops_the_scaled_copy_of_t1(self):
        qts = build_model("qrw", 3, noise_probability=0.1)
        t1, (keep, flip) = (qts.operation("T1").kraus_circuits[0],
                            qts.operation("T2").kraus_circuits)
        assert qts.image_circuits() == [t1, flip]
        rep, ratio = qts.representative(keep)
        assert rep is t1
        assert ratio == pytest.approx(math.sqrt(0.1))
