"""Addition-partition image computation (Section V.A)."""

import pytest

from repro.image.addition import (AdditionImageComputer,
                                  select_slice_indices, slice_network)
from repro.image.engine import compute_image
from repro.circuits.network import circuit_to_tdd_network
from repro.circuits.library import grover_iteration
from repro.mc.config import CheckerConfig
from repro.systems import models
from repro.tdd.manager import TDDManager

from tests.helpers import assert_subspace_matches_dense, dense_image_oracle

MODELS = {
    "ghz4": lambda: models.ghz_qts(4),
    "grover4": lambda: models.grover_qts(4),
    "bv5": lambda: models.bv_qts(5),
    "qft4": lambda: models.qft_qts(4),
    "qrw4": lambda: models.qrw_qts(4, 0.3),
    "bitflip": lambda: models.bitflip_qts(),
}


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("k", [0, 1, 2])
def test_matches_dense_oracle(name, k):
    build = MODELS[name]
    expected = dense_image_oracle(build())
    result = compute_image(build(),
                           config=CheckerConfig(method="addition",
                                                method_params={"k": k}))
    assert_subspace_matches_dense(result.subspace, expected)


def test_k0_equals_basic():
    """k = 0 degrades to the basic algorithm (one unsliced part)."""
    expected = dense_image_oracle(models.grover_qts(4))
    result = compute_image(models.grover_qts(4),
                           config=CheckerConfig(method="addition",
                                                method_params={"k": 0}))
    assert_subspace_matches_dense(result.subspace, expected)


def test_number_of_parts_is_two_to_k():
    qts = models.grover_qts(4)
    computer = AdditionImageComputer(qts, k=2)
    from repro.utils.stats import StatsRecorder
    parts, inputs, outputs = computer.parts_for(
        qts.all_kraus_circuits()[0], StatsRecorder())
    assert len(parts) == 4


def test_sliced_indices_are_internal():
    manager = TDDManager()
    circuit = grover_iteration(4)
    network, inputs, outputs = circuit_to_tdd_network(circuit, manager)
    chosen = select_slice_indices(network.tensors, 3,
                                  network.open_indices)
    boundary = set(inputs) | set(outputs)
    assert len(chosen) == 3
    for idx in chosen:
        assert idx not in boundary


def test_slice_network_removes_index():
    manager = TDDManager()
    circuit = grover_iteration(3)
    network, inputs, outputs = circuit_to_tdd_network(circuit, manager)
    (target,) = select_slice_indices(network.tensors, 1,
                                     network.open_indices)
    sliced = slice_network(network, {target: 0})
    for tensor in sliced.tensors:
        assert target not in set(tensor.indices)


def test_parts_sum_to_whole():
    """sum_i phi_i must equal the full circuit tensor."""
    manager = TDDManager()
    circuit = grover_iteration(3)
    network, inputs, outputs = circuit_to_tdd_network(circuit, manager)
    whole = network.contract_all()
    (target,) = select_slice_indices(network.tensors, 1,
                                     network.open_indices)
    part0 = slice_network(network, {target: 0}).contract_all()
    part1 = slice_network(network, {target: 1}).contract_all()
    assert (part0 + part1).allclose(whole)


def test_negative_k_rejected():
    with pytest.raises(ValueError):
        AdditionImageComputer(models.ghz_qts(3), k=-1)
