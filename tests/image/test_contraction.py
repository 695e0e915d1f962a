"""Contraction-partition image computation (Section V.B)."""

import pytest

import repro.image.base as image_base
from repro.errors import ConfigError
from repro.image.base import circuit_diagrams
from repro.image.engine import compute_image, make_computer
from repro.mc.config import CheckerConfig
from repro.systems import models
from repro.tdd.manager import TDDManager
from repro.tensor.network import contract_network
from repro.tensor.ordering import greedy_order
from repro.utils.stats import StatsRecorder

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


@pytest.mark.parametrize("k", [0, 1])
def test_blocks_are_stored_in_greedy_fold_order(k):
    """Each slice's blocks come out of the build in the order a greedy
    fold from the circuit inputs takes them, so folding them in list
    order is that fold (greedy order is then the identity)."""
    qts = models.grover_qts(6)
    (circuit,) = qts.all_kraus_circuits()
    manager = TDDManager()
    slices, inputs, outputs = circuit_diagrams(circuit, manager, k, 2, 2)
    assert len(slices) == 2 ** k
    for blocks in slices:
        legs = [inputs] + [block.indices for block in blocks]
        assert greedy_order(legs, set(outputs)) == list(range(len(legs)))


@pytest.mark.parametrize("name", ["grover4", "qft4", "qrw4"])
def test_greedy_order_agrees(name):
    """The stored blocks folded in greedy (list) order give the same
    circuit tensor as the reverse fold."""
    for circuit in MODELS[name]().all_kraus_circuits():
        manager = TDDManager()
        (blocks,), inputs, outputs = circuit_diagrams(circuit, manager,
                                                      0, 2, 2)
        assert len(blocks) > 1
        open_indices = set(inputs) | set(outputs)
        greedy = contract_network(blocks, open_indices)
        assert greedy.allclose(contract_network(blocks[::-1],
                                                open_indices))


def test_bad_order_policy():
    # the fold order is not a parameter, whatever its value
    with pytest.raises(ConfigError, match="order_policy"):
        make_computer(models.ghz_qts(3), "contraction", order_policy="magic")


def test_greedy_order_runs_once_per_slice_build(monkeypatch):
    """The fold order is worked out when a circuit's diagrams are
    built, once per slice, and never for an image served from the
    operator cache."""
    calls = []

    def counting(legs, open_indices):
        calls.append(len(legs))
        return greedy_order(legs, open_indices)

    monkeypatch.setattr(image_base, "greedy_order", counting)
    qts = models.grover_qts(4)
    computer = make_computer(qts, "hybrid", k=1, k1=2, k2=2)
    computer.image(None, StatsRecorder())
    assert len(calls) == 2 * len(qts.image_circuits())
    built = len(calls)
    computer.image(None, StatsRecorder())
    make_computer(qts, "hybrid", k=1, k1=2, k2=2).image(None,
                                                         StatsRecorder())
    assert len(calls) == built


def test_blocks_cached_across_calls():
    qts = models.ghz_qts(4)
    computer = make_computer(qts, "contraction", k1=2, k2=2)
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
