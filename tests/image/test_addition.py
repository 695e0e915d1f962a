"""Addition-partition image computation (Section V.A)."""

import pytest

from repro.errors import ConfigError
from repro.image.base import circuit_diagrams, select_slice_indices
from repro.image.engine import compute_image, make_computer
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
    computer = make_computer(qts, "addition", k=2)
    from repro.utils.stats import StatsRecorder
    parts, inputs, outputs = computer.prepare(
        qts.all_kraus_circuits()[0], StatsRecorder())
    assert len(parts) == 4


def test_sliced_indices_are_internal():
    circuit = grover_iteration(4)
    wirings, inputs, outputs = circuit.wirings()
    boundary = set(inputs) | set(outputs)
    chosen = select_slice_indices(wirings, 3, boundary)
    assert len(chosen) == 3
    for idx in chosen:
        assert idx not in boundary


def test_parts_sum_to_whole():
    """sum_i phi_i must equal the full circuit tensor."""
    manager = TDDManager()
    circuit = grover_iteration(3)
    (whole,), = circuit_diagrams(circuit, manager, 0, 3, None)[0]
    (part0,), (part1,) = circuit_diagrams(circuit, manager, 1, 3, None)[0]
    assert not part0.allclose(whole)
    assert (part0 + part1).allclose(whole)


def test_negative_k_rejected():
    with pytest.raises(ConfigError):
        make_computer(models.ghz_qts(3), "addition", k=-1)
