"""Table I — quantum random walk rows (noisy coin, Section III.A.3).

Paper: QRW20 basic 341 s / 265614 nodes, addition 218 s / 107714,
contraction 14.31 s / 404 — and only contraction reaches QRW100.

Reproduction: 4-step noisy walks; expect the same method ordering and
flat contraction node counts as the walk widens.
"""

import pytest

from repro.mc.config import CheckerConfig
from repro.systems import models

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")
#: the contraction method at the paper's Table I setting
CONTRACTION_K4 = CheckerConfig(method="contraction",
                               method_params={"k1": 4, "k2": 4})


def qrw(n, steps=4):
    return models.qrw_qts(n, 0.1, steps=steps)


@pytest.mark.parametrize("method,params", [
    ("basic", {}),
    ("addition", {"k": 1}),
    ("contraction", {"k1": 4, "k2": 4}),
])
def test_qrw6(image_bench, method, params):
    result = image_bench(lambda: qrw(6),
                         CheckerConfig(method=method, method_params=params))
    assert result.dimension >= 1


@pytest.mark.parametrize("n", [8, 10])
def test_qrw_wide_contraction(image_bench, n):
    result = image_bench(lambda: qrw(n), CONTRACTION_K4)
    assert result.dimension >= 1


def test_qrw_contraction_fastest():
    from repro.image.engine import compute_image
    basic = compute_image(qrw(8, steps=6), config=BASIC)
    contraction = compute_image(qrw(8, steps=6), config=CONTRACTION_K4)
    assert contraction.stats.seconds <= basic.stats.seconds * 1.5
    assert contraction.stats.max_nodes <= basic.stats.max_nodes
