"""Algorithm 1 (basic image computation) vs the dense oracle."""

import numpy as np
import pytest

from repro.image.engine import compute_image, make_computer
from repro.mc.config import CheckerConfig
from repro.systems import models

from tests.helpers import assert_subspace_matches_dense, dense_image_oracle

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")


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
def test_matches_dense_oracle(name):
    build = MODELS[name]
    expected = dense_image_oracle(build())
    result = compute_image(build(), config=BASIC)
    assert_subspace_matches_dense(result.subspace, expected)


def test_operator_cache_reused():
    qts = models.ghz_qts(3)
    computer = make_computer(qts, "basic")
    from repro.utils.stats import StatsRecorder
    stats = StatsRecorder()
    computer.image(None, stats)
    made_before = qts.manager.nodes_made
    computer.image(None, stats)  # second run: operator cached
    # a cached operator means far fewer fresh nodes on the second pass
    assert qts.manager.nodes_made - made_before < made_before


def test_stats_populated():
    result = compute_image(models.ghz_qts(4), config=BASIC)
    assert result.stats.max_nodes > 0
    assert result.stats.contractions >= 1
    assert result.stats.seconds >= 0


def test_image_of_zero_subspace_is_zero():
    qts = models.ghz_qts(3)
    zero = qts.space.zero_subspace()
    result = compute_image(qts, subspace=zero, config=BASIC)
    assert result.dimension == 0


def test_image_of_custom_subspace():
    qts = models.ghz_qts(3)
    sub = qts.space.span([qts.space.basis_state([1, 1, 1])])
    result = compute_image(qts, subspace=sub, config=BASIC)
    # GHZ circuit on |111>: H(q0) gives (|0>-|1>)/sqrt2 (x) |11>, then
    # CX(0,1), CX(1,2) map it to (|010> - |101>)/sqrt2
    assert result.dimension == 1
    amps = result.subspace.basis[0].to_numpy().reshape(-1)
    expect = np.zeros(8)
    expect[0b010] = 1 / np.sqrt(2)
    expect[0b101] = -1 / np.sqrt(2)
    assert np.isclose(abs(np.vdot(amps, expect)), 1.0, atol=1e-8)
