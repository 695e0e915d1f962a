"""Table I — Grover rows (scaled).

Paper (C++ TDD, 3600 s timeout):
    Grover15  basic 19.33 s / 15785    addition 17.35 s / 15099
              contraction 1.61 s / 597
    Grover40  only contraction finishes (2953 s / 851973).

Reproduction at pure-Python scale: two composed Grover iterations on
8 qubits (the regime where the monolithic operator TDD mixes); expect
contraction << addition <= basic on max_nodes and time, and only
contraction to stay flat as qubits grow.
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
    """The Table I shape: contraction's peak nodes are far below
    basic's on the same instance."""
    from repro.image.engine import compute_image
    basic = compute_image(grover(8), config=BASIC)
    contraction = compute_image(grover(8), config=CONTRACTION_K4)
    addition = compute_image(grover(8),
                             config=CheckerConfig(method="addition",
                                                  method_params={"k": 1}))
    assert contraction.stats.max_nodes * 2 < basic.stats.max_nodes
    assert addition.stats.max_nodes <= basic.stats.max_nodes
