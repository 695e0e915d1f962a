"""Ablation benches on the extension workloads and the hybrid method.

Beyond the paper's five families: phase estimation (QFT-heavy),
W-state preparation (controlled rotations), the Cuccaro adder (deep
CX/CCX ripple) and hidden shift (diagonal-layer heavy).  Each runs the
paper's contraction parameters plus the hybrid slice+block scheme.
"""

import pytest

from repro.mc.config import CheckerConfig
from repro.systems import models

#: the contraction method at the paper's Table I setting
CONTRACTION_K4 = CheckerConfig(method="contraction",
                               method_params={"k1": 4, "k2": 4})


class TestExtensionFamilies:
    @pytest.mark.parametrize("method,params", [
        ("basic", {}),
        ("contraction", {"k1": 4, "k2": 4}),
    ])
    def test_qpe8(self, image_bench, method, params):
        result = image_bench(lambda: models.qpe_qts(8, 0.625),
                             CheckerConfig(method=method,
                                           method_params=params))
        assert result.dimension == 1

    @pytest.mark.parametrize("method,params", [
        ("basic", {}),
        ("contraction", {"k1": 4, "k2": 4}),
    ])
    def test_wstate12(self, image_bench, method, params):
        result = image_bench(lambda: models.w_state_qts(12),
                             CheckerConfig(method=method,
                                           method_params=params))
        assert result.dimension == 1

    @pytest.mark.parametrize("method,params", [
        ("basic", {}),
        ("contraction", {"k1": 4, "k2": 4}),
    ])
    def test_adder4(self, image_bench, method, params):
        result = image_bench(lambda: models.adder_qts(4, 5, 9),
                             CheckerConfig(method=method,
                                           method_params=params))
        assert result.dimension == 1

    @pytest.mark.parametrize("method,params", [
        ("basic", {}),
        ("contraction", {"k1": 4, "k2": 4}),
    ])
    def test_hiddenshift12(self, image_bench, method, params):
        result = image_bench(lambda: models.hidden_shift_qts(12),
                             CheckerConfig(method=method,
                                           method_params=params))
        assert result.dimension == 1


class TestHybridMethod:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_hybrid_on_grover(self, image_bench, k):
        result = image_bench(
            lambda: models.grover_qts(8, iterations=2),
            CheckerConfig(method="hybrid",
                          method_params={"k": k, "k1": 4, "k2": 4}))
        assert result.dimension == 1

    def test_hybrid_nodes_no_worse_than_contraction(self):
        from repro.image.engine import compute_image
        contraction = compute_image(models.grover_qts(8, iterations=2),
                                    config=CONTRACTION_K4)
        hybrid = compute_image(
            models.grover_qts(8, iterations=2),
            config=CheckerConfig(method="hybrid",
                                 method_params={"k": 1, "k1": 4, "k2": 4}))
        # slicing the top index cannot blow up the block diagrams
        assert hybrid.stats.max_nodes <= 2 * contraction.stats.max_nodes


class TestFrontierReachability:
    def test_qrw_reachability(self, benchmark):
        from repro.mc.reachability import reachable_space

        def run():
            return reachable_space(models.qrw_qts(4, 0.2), CONTRACTION_K4)

        trace = benchmark.pedantic(run, rounds=1, iterations=1)
        benchmark.extra_info["iterations"] = trace.iterations
        benchmark.extra_info["dimension"] = trace.dimension
        assert trace.converged
