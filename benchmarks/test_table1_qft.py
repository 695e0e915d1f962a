"""Table I — QFT rows (scaled).

Paper: QFT15 basic 34.64 s / 65536 nodes; addition halves the nodes;
contraction 0.08 s / 63 nodes, then scales to QFT100 at 7.14 s / 101
nodes with *linear* max-node growth.

Reproduction: the same exponential-vs-linear split at 10/16/20 qubits.
"""

import pytest

from repro.mc.config import CheckerConfig
from repro.systems import models

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")
#: the contraction method at the paper's Table I setting
CONTRACTION_K4 = CheckerConfig(method="contraction",
                               method_params={"k1": 4, "k2": 4})


@pytest.mark.parametrize("method,params", [
    ("basic", {}),
    ("addition", {"k": 1}),
    ("contraction", {"k1": 4, "k2": 4}),
])
def test_qft10(image_bench, method, params):
    result = image_bench(lambda: models.qft_qts(10),
                         CheckerConfig(method=method, method_params=params))
    assert result.dimension == 1


@pytest.mark.parametrize("n", [16, 20])
def test_qft_wide_contraction_only(image_bench, n):
    result = image_bench(lambda: models.qft_qts(n), CONTRACTION_K4)
    assert result.dimension == 1
    # the paper's headline: max nodes grow linearly, ~n
    assert result.stats.max_nodes <= 8 * n


def test_qft_exponential_vs_linear():
    from repro.image.engine import compute_image
    basic = compute_image(models.qft_qts(10), config=BASIC)
    contraction = compute_image(models.qft_qts(10), config=CONTRACTION_K4)
    assert basic.stats.max_nodes >= 2 ** 10 - 1
    assert contraction.stats.max_nodes < 100
