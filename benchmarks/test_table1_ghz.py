"""Table I — GHZ rows.

Paper: GHZ is easy for everyone (500 qubits in < 4 s); all methods
linear in max nodes, addition slightly lighter than basic.

Reproduction: same linearity; GHZ100 runs at paper size.
"""

import pytest

from repro.mc.config import CheckerConfig
from repro.systems import models

#: the contraction method at the paper's Table I setting
CONTRACTION_K4 = CheckerConfig(method="contraction",
                               method_params={"k1": 4, "k2": 4})


@pytest.mark.parametrize("method,params", [
    ("basic", {}),
    ("addition", {"k": 1}),
    ("contraction", {"k1": 4, "k2": 4}),
])
def test_ghz30(image_bench, method, params):
    result = image_bench(lambda: models.ghz_qts(30),
                         CheckerConfig(method=method, method_params=params))
    assert result.dimension == 1


@pytest.mark.parametrize("n", [60, 100])
def test_ghz_wide_contraction(image_bench, n):
    result = image_bench(lambda: models.ghz_qts(n), CONTRACTION_K4)
    assert result.dimension == 1


def test_ghz_linear_node_growth():
    from repro.image.engine import compute_image
    nodes = [compute_image(models.ghz_qts(n),
                           config=CONTRACTION_K4).stats.max_nodes
             for n in (25, 50, 100)]
    assert nodes[2] <= 6 * nodes[0]
