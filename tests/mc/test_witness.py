"""Witness traces built from the checker's own image method.

The layering stores every frontier image ``E u_j``; the backward walk
builds each predecessor ``sum_j conj(<v_i|E u_j>) u_j`` from those
images, so no adjoint circuit is built or applied, and the replay runs
through the same computer.
"""

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.image.engine import METHODS, make_computer
from repro.mc.checker import ModelChecker
from repro.mc.config import CheckerConfig
from repro.systems import models
from repro.systems.operations import QuantumOperation
from repro.systems.qts import QuantumTransitionSystem
from repro.utils.stats import StatsRecorder

#: the basis state two noiseless steps away from the walk's start
FAR = (0, 0, 1, 0)


def walk_with_far():
    qts = models.qrw_qts(4, 0.1, steps=2, start_position=0)
    qts.register_subspace("far", qts.space.span(
        [qts.space.basis_state(FAR)]))
    return qts


def phase_system():
    """Two unitaries with complex phases; ``far`` is two steps away."""
    a = QuantumCircuit(3)
    a.p(1.03, 1).cx(1, 2).h(1).p(1.898, 2).p(0.99, 2).h(2)
    b = QuantumCircuit(3)
    b.p(0.155, 0).cx(2, 0).cx(0, 1).cx(2, 0).h(2).cx(2, 0)
    qts = QuantumTransitionSystem(3, [QuantumOperation.unitary("A", a),
                                      QuantumOperation.unitary("B", b)])
    qts.set_initial_basis_states([[0, 0, 0]])
    qts.register_subspace("far", qts.space.span(
        [qts.space.basis_state([1, 0, 0])]))
    return qts


@pytest.fixture
def builds(monkeypatch):
    """Every (shape, circuit) the operator cache had to build."""
    built = []
    original = QuantumTransitionSystem.operator

    def spy(self, shape, circuit, build):
        def counted(observer):
            built.append((shape, circuit))
            return build(observer)
        return original(self, shape, circuit, counted)

    monkeypatch.setattr(QuantumTransitionSystem, "operator", spy)
    return built


def forbid_adjoints(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("adjoint() called")
    monkeypatch.setattr(QuantumTransitionSystem, "adjoint", refuse)
    monkeypatch.setattr(QuantumOperation, "adjoint", refuse)


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("method", METHODS)
def test_two_step_trace_replays(method, direction):
    result = ModelChecker(walk_with_far(), CheckerConfig(
        method=method, direction=direction)).check("EF far")
    assert result.holds
    trace = result.witness_trace
    assert trace.symbols == ["T1", "T1"]
    assert trace.valid
    assert [s.dimension for s in trace.subspaces] == [1, 1, 1]
    assert len(trace.states) == 3


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_two_step_trace_on_the_dense_backend(direction):
    result = ModelChecker(walk_with_far(), CheckerConfig(
        backend="dense", direction=direction)).check("EF far")
    assert result.witness_trace.symbols == ["T1", "T1"]
    assert result.witness_trace.valid


@pytest.mark.parametrize("method", METHODS)
def test_each_step_reaches_the_next_state_in_phase(method):
    """A predecessor is the normalised projection of ``E^dagger v_i``
    onto the previous layer, so ``<v_i|E v_{i-1}>`` is that
    projection's norm: real and positive.  On complex amplitudes this
    holds only if the stored overlaps are conjugated."""
    qts = phase_system()
    result = ModelChecker(qts, CheckerConfig(method=method)).check(
        "EF far")
    trace = result.witness_trace
    assert trace.valid and trace.length == 2
    computer = make_computer(qts, method)
    for i, symbol in enumerate(trace.symbols):
        (circuit,) = qts.operation(symbol).kraus_circuits
        image = computer.circuit_image(trace.states[i], circuit,
                                       StatsRecorder())
        overlap = trace.states[i + 1].inner(image)
        assert abs(overlap.imag) < 1e-9 and overlap.real > 1e-7


@pytest.mark.parametrize("method", METHODS)
def test_forward_witness_builds_nothing(monkeypatch, builds, method):
    qts = walk_with_far()
    checker = ModelChecker(qts, CheckerConfig(method=method))
    checker.check("EF far", witness_trace=False)
    fixpoint_builds = len(builds)
    assert fixpoint_builds == len(qts.image_circuits())
    forbid_adjoints(monkeypatch)
    result = checker.check("EF far")
    assert result.witness_trace.symbols == ["T1", "T1"]
    assert len(builds) == fixpoint_builds


@pytest.mark.parametrize("method", METHODS)
def test_backward_witness_builds_the_forward_family_once(builds, method):
    qts = walk_with_far()
    config = CheckerConfig(method=method, direction="backward")
    result = ModelChecker(qts, config).check("EF far")
    assert result.witness_trace.valid
    shape = make_computer(qts, method).shape()
    forward = set(qts.image_circuits())
    adjoint = set(qts.adjoint().image_circuits())
    assert {s for s, _ in builds} == {shape}
    built = [circuit for _, circuit in builds]
    assert len(built) == len(set(built))
    assert set(built) == forward | adjoint
    # a second check builds nothing new, and neither does a forward
    # fixpoint of the adjoint system, which shares the cache
    ModelChecker(qts, config).check("EF far")
    ModelChecker(qts.adjoint(), CheckerConfig(method=method)).reachable()
    assert len(builds) == len(built)


def test_dense_witness_runs_the_default_method(builds):
    qts = walk_with_far()
    ModelChecker(qts, CheckerConfig(backend="dense")).check("EF far")
    default = CheckerConfig()
    shape = make_computer(qts, default.method,
                          **default.method_params).shape()
    assert builds and {s for s, _ in builds} == {shape}


@pytest.mark.parametrize("method", METHODS)
def test_replay_images_a_folded_circuit_through_its_representative(method):
    """``B``'s first branch is ``0.6·A``, so only ``A``'s circuit is
    imaged; replaying ``B`` still spans both of its branches."""
    a = QuantumCircuit(2).h(0)
    keep = QuantumCircuit(2).h(0).scalar(0.6)
    flip = QuantumCircuit(2).h(0).scalar(0.8).x(1)
    qts = QuantumTransitionSystem(2, [QuantumOperation.unitary("A", a),
                                      QuantumOperation("B", [keep, flip])])
    qts.set_initial_basis_states([[0, 0]])
    qts.register_subspace("far", qts.space.span(
        [qts.space.basis_state([0, 1])]))
    assert qts.image_circuits() == [a, flip]
    trace = ModelChecker(qts, CheckerConfig(method=method)).check(
        "EF far").witness_trace
    assert trace.symbols == ["B"]
    assert [s.dimension for s in trace.subspaces] == [1, 2]
    assert trace.valid
