"""Table I — Grover rows (scaled).

Paper (C++ TDD, 3600 s timeout):
    Grover15  basic 19.33 s / 15785    addition 17.35 s / 15099
              contraction 1.61 s / 597
    Grover40  only contraction finishes (2953 s / 851973).

Reproduction at pure-Python scale: two composed Grover iterations on
8 qubits.  With edge weights interned (one node per sub-tensor) the
monolithic operator stays compact at this depth, so basic does not
blow up and contraction's peak is not below it; the paper's
contraction << basic shape is asserted on the QFT rows instead
(``test_table1_qft.py``).  Here basic must grow at most linearly with
the qubit count, which guards against weights that split equal nodes.
"""

import pytest

from repro.mc.config import CheckerConfig
from repro.systems import models

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")
#: the contraction method at the paper's Table I setting
CONTRACTION_K4 = CheckerConfig(method="contraction",
                               method_params={"k1": 4, "k2": 4})


def grover(n):
    return models.grover_qts(n, iterations=2)


@pytest.mark.parametrize("method,params", [
    ("basic", {}),
    ("addition", {"k": 1}),
    ("contraction", {"k1": 4, "k2": 4}),
])
def test_grover8(image_bench, method, params):
    result = image_bench(lambda: grover(8),
                         CheckerConfig(method=method, method_params=params))
    assert result.dimension >= 1


def test_grover9_contraction_only(image_bench):
    """The 'beyond basic' row: contraction keeps scaling."""
    result = image_bench(lambda: grover(9), CONTRACTION_K4)
    assert result.dimension >= 1


def test_grover_method_ordering():
    """basic's peak nodes grow at most linearly over n = 6, 8, 10, and
    addition's stay at or below basic's on the same instance.

    Weights split by float noise used to duplicate nodes level by
    level (500 / 2387 / 356260 at n = 6 / 8 / 10); interned weights
    give 102 / 158 / 211.
    """
    from repro.image.engine import compute_image
    basic = [compute_image(grover(n), config=BASIC).stats.max_nodes
             for n in (6, 8, 10)]
    first_step = basic[1] - basic[0]
    second_step = basic[2] - basic[1]
    assert 0 < second_step <= 1.25 * first_step
    addition = compute_image(grover(8),
                             config=CheckerConfig(method="addition",
                                                  method_params={"k": 1}))
    assert addition.stats.max_nodes <= basic[1]
