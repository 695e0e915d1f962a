"""Ablation benches for the partition methods' design choices.

Not part of the paper's tables; these quantify (a) the contraction
fold-order policy, (b) the addition-partition slice count k, and
(c) the cost of hyper-edge index reuse being disabled is not
measurable here (reuse is structural), so instead we measure the
block-cache effect on repeated images (reachability's workhorse).
"""

import pytest

from repro.image.engine import make_computer
from repro.mc.config import CheckerConfig
from repro.systems import models
from repro.utils.stats import StatsRecorder


def grover():
    return models.grover_qts(8, iterations=2)


class TestOrderPolicy:
    @pytest.mark.parametrize("policy", ["sequential", "greedy"])
    def test_fold_order(self, image_bench, policy):
        result = image_bench(grover, CheckerConfig(
            method="contraction",
            method_params={"k1": 4, "k2": 4, "order_policy": policy}))
        assert result.dimension >= 1


class TestAdditionK:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_slice_count(self, image_bench, k):
        result = image_bench(grover, CheckerConfig(
            method="addition", method_params={"k": k}))
        assert result.dimension >= 1


class TestBlockCache:
    def test_repeated_image_amortises_blocks(self, benchmark):
        """Second and later images reuse the cached block TDDs —
        the effect reachability relies on."""
        qts = models.qrw_qts(6, 0.1, steps=4)
        computer = make_computer(qts, "contraction", k1=4, k2=4)
        stats = StatsRecorder()
        first = computer.image(None, stats)  # builds + caches blocks

        def warm_image():
            return computer.image(first.subspace, StatsRecorder())

        benchmark.pedantic(warm_image, rounds=3, iterations=1)
