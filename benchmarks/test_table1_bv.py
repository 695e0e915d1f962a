"""Table I — Bernstein-Vazirani rows.

Paper: all three methods finish BV100..BV500; max nodes grow linearly
for every method (596..2996 basic, ~n for contraction), contraction
~15x faster.

Reproduction: same linear growth; BV100 runs at the paper's own size
under contraction.
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
def test_bv30(image_bench, method, params):
    result = image_bench(lambda: models.bv_qts(30),
                         CheckerConfig(method=method, method_params=params))
    assert result.dimension == 1


@pytest.mark.parametrize("n", [60, 100])
def test_bv_wide_contraction(image_bench, n):
    """Paper-scale widths under the contraction method."""
    result = image_bench(lambda: models.bv_qts(n), CONTRACTION_K4)
    assert result.dimension == 1


def test_bv_linear_node_growth():
    from repro.image.engine import compute_image
    nodes = [compute_image(models.bv_qts(n),
                           config=CONTRACTION_K4).stats.max_nodes
             for n in (25, 50, 100)]
    # quadrupling the width must not grow nodes more than ~6x (linear
    # with small constant wobble)
    assert nodes[2] <= 6 * nodes[0]
