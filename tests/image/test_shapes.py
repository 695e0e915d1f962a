"""One image computer, four shapes: the methods as slice x block cuts."""

import pytest

from repro.image.base import ImageComputerBase, circuit_diagrams
from repro.image.engine import (METHOD_PARAMS, METHODS, compute_image,
                                make_computer)
from repro.mc.config import CheckerConfig
from repro.systems import models
from repro.utils.stats import StatsRecorder

from tests.helpers import subspace_to_dense

#: a value for every method parameter, each one off its default
PARAM_VALUES = {"k": 1, "k1": 2, "k2": 2}

MODELS = {
    "grover6": lambda: models.grover_qts(6),
    "qrw5": lambda: models.qrw_qts(5),
}


def image(build, method, **params):
    return compute_image(build(), config=CheckerConfig(
        method=method, method_params=params))


def assert_same_image(results):
    first = results[0]
    for other in results[1:]:
        assert subspace_to_dense(other.subspace).equals(
            subspace_to_dense(first.subspace))
        assert other.stats.max_nodes == first.stats.max_nodes


@pytest.mark.parametrize("method", METHODS)
def test_every_method_parameter_is_accepted(method):
    """Each name a config accepts for a method reaches its computer."""
    for name in sorted(METHOD_PARAMS[method]):
        qts = models.grover_qts(3)
        computer = make_computer(qts, method, **{name: PARAM_VALUES[name]})
        assert computer.image().dimension == 1


def test_methods_map_to_shapes():
    qts = models.grover_qts(6)
    assert make_computer(qts, "basic").shape() == (0, 6, None)
    assert make_computer(qts, "addition").shape() == (1, 6, None)
    assert make_computer(qts, "contraction").shape() == (0, 4, 4)
    assert make_computer(qts, "hybrid").shape() == (1, 4, 4)
    # one block holds every gate once k1 >= n, whatever k2 says
    assert make_computer(qts, "contraction", k1=9, k2=1).shape() == (
        0, 6, None)
    assert isinstance(make_computer(qts, "hybrid"), ImageComputerBase)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_one_block_shapes_equal_basic(name):
    build = MODELS[name]
    n = build().num_qubits
    assert_same_image([image(build, "basic"),
                       image(build, "contraction", k1=n),
                       image(build, "hybrid", k=0, k1=n)])


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("k", [1, 2])
def test_one_block_slicing_equals_addition(name, k):
    build = MODELS[name]
    n = build().num_qubits
    assert_same_image([image(build, "addition", k=k),
                       image(build, "hybrid", k=k, k1=n)])


@pytest.mark.parametrize("name", sorted(MODELS))
def test_one_block_methods_record_one_block(name):
    for method in ("basic", "addition"):
        assert image(MODELS[name], method).stats.extra["blocks"] == 1


@pytest.mark.parametrize("method,params", [
    ("basic", {}), ("addition", {"k": 2}),
    ("contraction", {"k1": 2, "k2": 2}),
    ("hybrid", {"k": 2, "k1": 2, "k2": 2})])
def test_contractions_count_state_by_diagram_folds(method, params):
    """One image of one state through one Kraus circuit folds the state
    through every block of every slice."""
    qts = models.grover_qts(4)
    computer = make_computer(qts, method, **params)
    (circuit,) = qts.all_kraus_circuits()
    stats = StatsRecorder()
    computer.circuit_image(qts.initial.basis[0], circuit, stats)
    blocks = stats.extra["blocks"]
    assert stats.contractions == 2 ** params.get("k", 0) * blocks
    assert stats.additions == 2 ** params.get("k", 0) - 1
    assert (blocks == 1) == (method in ("basic", "addition"))


def test_gateless_circuit_has_no_blocks():
    from repro.circuits.circuit import QuantumCircuit
    from repro.tdd.manager import TDDManager
    slices, inputs, outputs = circuit_diagrams(QuantumCircuit(2),
                                               TDDManager(), 0, 2, None)
    assert slices == [[]]
    assert inputs == outputs
