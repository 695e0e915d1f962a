"""The paper's Table I qualitative claims at laptop scale.

Absolute numbers differ (pure Python vs the authors' C++), but the
*shapes* must hold: exponential vs linear peak node counts, and the
method ordering contraction <= addition <= basic on the partition-
sensitive families.
"""

import pytest

from repro.image.engine import compute_image
from repro.mc.config import CheckerConfig
from repro.systems import models

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")
#: the contraction method at the paper's Table I setting
CONTRACTION_K4 = CheckerConfig(method="contraction",
                               method_params={"k1": 4, "k2": 4})


class TestQFTTrend:
    def test_basic_exponential_contraction_linear(self):
        basic_nodes = []
        contraction_nodes = []
        sizes = [6, 8, 10]
        for n in sizes:
            basic_nodes.append(
                compute_image(models.qft_qts(n), config=BASIC).stats.max_nodes)
            contraction_nodes.append(
                compute_image(models.qft_qts(n),
                              config=CONTRACTION_K4).stats.max_nodes)
        # basic doubles-plus per qubit pair; contraction stays flat-ish
        assert basic_nodes[-1] >= 4 * basic_nodes[0]
        assert contraction_nodes[-1] <= 2 * max(contraction_nodes[0], 32)

    def test_wide_qft_feasible_only_with_contraction(self):
        result = compute_image(models.qft_qts(16), config=CONTRACTION_K4)
        assert result.dimension == 1
        assert result.stats.max_nodes <= 200


class TestBVTrend:
    def test_linear_nodes(self):
        nodes = []
        for n in (10, 20, 40):
            result = compute_image(models.bv_qts(n), config=CONTRACTION_K4)
            assert result.dimension == 1
            nodes.append(result.stats.max_nodes)
        # linear growth: quadrupling n at most ~quadruples nodes
        assert nodes[2] <= 6 * nodes[0]


class TestGHZTrend:
    def test_linear_nodes(self):
        nodes = []
        for n in (10, 20, 40):
            result = compute_image(models.ghz_qts(n),
                                   config=CONTRACTION_K4)
            assert result.dimension == 1
            nodes.append(result.stats.max_nodes)
        assert nodes[2] <= 6 * nodes[0]


class TestMethodOrdering:
    @pytest.mark.parametrize("n", [8, 10])
    def test_contraction_beats_basic_on_qft(self, n):
        basic = compute_image(models.qft_qts(n), config=BASIC)
        contraction = compute_image(models.qft_qts(n), config=CONTRACTION_K4)
        assert contraction.stats.max_nodes < basic.stats.max_nodes

    def test_addition_no_worse_than_basic_on_qft(self):
        n = 8
        basic = compute_image(models.qft_qts(n), config=BASIC)
        addition = compute_image(models.qft_qts(n),
                                 config=CheckerConfig(method="addition",
                                                      method_params={"k": 1}))
        assert addition.stats.max_nodes <= basic.stats.max_nodes
