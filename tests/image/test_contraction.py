"""Contraction-partition image computation (Section V.B)."""

import pytest

from repro.image.contraction import ContractionImageComputer
from repro.image.engine import compute_image
from repro.mc.config import CheckerConfig
from repro.systems import models

from tests.helpers import assert_subspace_matches_dense, dense_image_oracle

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")
#: the contraction method with small partition blocks
CONTRACTION_K2 = CheckerConfig(method="contraction",
                               method_params={"k1": 2, "k2": 2})
#: the contraction method at the paper's Table I setting
CONTRACTION_K4 = CheckerConfig(method="contraction",
                               method_params={"k1": 4, "k2": 4})

MODELS = {
    "ghz4": lambda: models.ghz_qts(4),
    "grover4": lambda: models.grover_qts(4),
    "grover4inv": lambda: models.grover_qts(4, "invariant"),
    "bv5": lambda: models.bv_qts(5),
    "qft4": lambda: models.qft_qts(4),
    "qrw4": lambda: models.qrw_qts(4, 0.3),
    "bitflip": lambda: models.bitflip_qts(),
}


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("k1,k2", [(1, 1), (2, 2), (4, 4)])
def test_matches_dense_oracle(name, k1, k2):
    build = MODELS[name]
    expected = dense_image_oracle(build())
    result = compute_image(build(),
                           config=CheckerConfig(method="contraction",
                                                method_params={"k1": k1,
                                                               "k2": k2}))
    assert_subspace_matches_dense(result.subspace, expected)


@pytest.mark.parametrize("name", ["grover4", "qft4", "qrw4"])
def test_greedy_order_agrees(name):
    build = MODELS[name]
    expected = dense_image_oracle(build())
    config = CheckerConfig(method="contraction",
                           method_params={"k1": 2, "k2": 2,
                                          "order_policy": "greedy"})
    result = compute_image(build(), config=config)
    assert_subspace_matches_dense(result.subspace, expected)


def test_bad_order_policy():
    with pytest.raises(ValueError):
        ContractionImageComputer(models.ghz_qts(3), order_policy="magic")


def test_blocks_cached_across_calls():
    qts = models.ghz_qts(4)
    computer = ContractionImageComputer(qts, k1=2, k2=2)
    from repro.utils.stats import StatsRecorder
    stats = StatsRecorder()
    computer.image(None, stats)
    made = qts.manager.nodes_made
    computer.image(None, stats)
    assert qts.manager.nodes_made - made < made


def test_block_count_recorded():
    result = compute_image(models.grover_qts(5), config=CONTRACTION_K2)
    assert result.stats.extra.get("blocks", 0) >= 2


def test_qft_contraction_avoids_monolithic_blowup():
    """The Table I headline: for QFT the basic method's peak TDD is
    exponential while contraction partition stays linear."""
    n = 8
    basic = compute_image(models.qft_qts(n), config=BASIC)
    contraction = compute_image(models.qft_qts(n), config=CONTRACTION_K4)
    assert basic.stats.max_nodes >= 2 ** n - 1
    assert contraction.stats.max_nodes <= 8 * n
    # identical subspaces nonetheless
    expected = dense_image_oracle(models.qft_qts(n))
    assert_subspace_matches_dense(contraction.subspace, expected)
