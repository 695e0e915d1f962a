"""Hybrid (slice + block) image computation."""

import pytest

from repro.errors import ConfigError
from repro.image.base import ImageComputerBase
from repro.image.engine import compute_image, make_computer
from repro.mc.config import CheckerConfig
from repro.systems import models

from tests.helpers import assert_subspace_matches_dense, dense_image_oracle

#: the contraction method with small partition blocks
CONTRACTION_K2 = CheckerConfig(method="contraction",
                               method_params={"k1": 2, "k2": 2})

MODELS = {
    "ghz4": lambda: models.ghz_qts(4),
    "grover4": lambda: models.grover_qts(4),
    "bv5": lambda: models.bv_qts(5),
    "qft4": lambda: models.qft_qts(4),
    "qrw4": lambda: models.qrw_qts(4, 0.3),
    "bitflip": lambda: models.bitflip_qts(),
}


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("k,k1,k2", [(0, 2, 2), (1, 2, 2), (2, 3, 3)])
def test_matches_dense_oracle(name, k, k1, k2):
    build = MODELS[name]
    expected = dense_image_oracle(build())
    result = compute_image(build(),
                           config=CheckerConfig(method="hybrid",
                                                method_params={"k": k,
                                                               "k1": k1,
                                                               "k2": k2}))
    assert_subspace_matches_dense(result.subspace, expected)


def test_k0_equals_contraction():
    """hybrid(k=0) degrades to plain contraction partition."""
    from tests.helpers import subspace_to_dense
    hybrid = compute_image(models.grover_qts(5),
                           config=CheckerConfig(method="hybrid",
                                                method_params={"k": 0, "k1": 2,
                                                               "k2": 2}))
    contraction = compute_image(models.grover_qts(5), config=CONTRACTION_K2)
    assert subspace_to_dense(hybrid.subspace).equals(
        subspace_to_dense(contraction.subspace))


def test_registered_in_engine():
    from repro.image.engine import METHODS
    assert "hybrid" in METHODS
    computer = make_computer(models.ghz_qts(3), "hybrid", k=1, k1=2, k2=2)
    assert isinstance(computer, ImageComputerBase)
    assert computer.shape() == (1, 2, 2)


def test_negative_k_rejected():
    with pytest.raises(ConfigError):
        make_computer(models.ghz_qts(3), "hybrid", k=-1)


def test_slice_cache_reused():
    qts = models.grover_qts(4)
    computer = make_computer(qts, "hybrid", k=1, k1=2, k2=2)
    from repro.utils.stats import StatsRecorder
    computer.image(None, StatsRecorder())
    made = qts.manager.nodes_made
    computer.image(None, StatsRecorder())
    assert qts.manager.nodes_made - made < made
