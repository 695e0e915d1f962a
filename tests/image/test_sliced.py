"""The sliced execution strategy: cofactor decomposition.

The acceptance bar for the strategy is *identical results*: for every
library circuit and slice depth, the sliced strategy must produce the
same image/reachable space as the monolithic baseline.
"""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.image.engine import compute_image
from repro.image.sliced import (MonolithicExecutor, SlicedExecutor,
                                STRATEGIES, make_executor)
from repro.image.base import input_sum_indices
from repro.circuits.network import circuit_to_tdd
from repro.mc.checker import ModelChecker
from repro.mc.config import CheckerConfig
from repro.mc.reachability import reachable_space
from repro.systems import models

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")

#: (model, size, builder options) — the five library families
LIBRARY = [
    ("ghz", 4, {}),
    ("bv", 4, {}),
    ("grover", 3, {}),
    ("qft", 3, {}),
    ("qrw", 4, {"steps": 2}),
]


def dense_image(model, size, opts, config=BASIC):
    qts = models.build_model(model, size, **opts)
    result = compute_image(qts, config=config)
    return result.dimension, result.subspace.to_dense()


class TestStrategyRegistry:
    def test_strategies_tuple(self):
        assert set(STRATEGIES) == {"monolithic", "sliced"}

    def test_make_executor(self):
        qts = models.ghz_qts(3)
        assert isinstance(make_executor("monolithic", qts.manager),
                          MonolithicExecutor)
        sliced = make_executor("sliced", qts.manager, slice_depth=3)
        assert isinstance(sliced, SlicedExecutor)
        assert sliced.depth == 3

    def test_unknown_strategy(self):
        qts = models.ghz_qts(3)
        with pytest.raises(ReproError):
            make_executor("quantum-magic", qts.manager)
        with pytest.raises(ReproError):
            compute_image(models.ghz_qts(3),
                          config=BASIC.replace(strategy="quantum-magic"))

    def test_negative_depth_rejected(self):
        with pytest.raises(ReproError):
            SlicedExecutor(models.ghz_qts(3).manager, depth=-1)


class TestSlicedEqualsMonolithic:
    """Bit-for-bit agreement on the full circuit library, depths 0-3."""

    @pytest.mark.parametrize("model,size,opts", LIBRARY)
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_basic_method(self, model, size, opts, depth):
        dim_mono, dense_mono = dense_image(model, size, opts)
        dim_sliced, dense_sliced = dense_image(
            model, size, opts,
            BASIC.replace(strategy="sliced", slice_depth=depth))
        assert dim_sliced == dim_mono
        assert np.allclose(dense_sliced, dense_mono)

    @pytest.mark.parametrize("model,size,opts", LIBRARY)
    def test_partition_methods(self, model, size, opts):
        dim_mono, dense_mono = dense_image(model, size, opts)
        for method, params in (("addition", {"k": 1}),
                               ("contraction", {"k1": 2, "k2": 2}),
                               ("hybrid", {"k": 1, "k1": 2, "k2": 2})):
            dim_sliced, dense_sliced = dense_image(
                model, size, opts,
                CheckerConfig(method=method, strategy="sliced",
                              slice_depth=2, method_params=params))
            assert dim_sliced == dim_mono, method
            assert np.allclose(dense_sliced, dense_mono), method

    def test_slices_counted(self):
        qts = models.build_model("qrw", 4, steps=2)
        result = compute_image(
            qts, config=BASIC.replace(strategy="sliced", slice_depth=2))
        assert result.stats.slices > 0
        assert result.stats.extra["strategy"] == "sliced"

    def test_depth_zero_degrades_to_monolithic(self):
        qts = models.build_model("ghz", 4)
        result = compute_image(
            qts, config=BASIC.replace(strategy="sliced", slice_depth=0))
        assert result.stats.slices == 0


class TestExecutorUnit:
    def _operator_setup(self, model="ghz", size=4, **opts):
        qts = models.build_model(model, size, **opts)
        circuit = qts.all_kraus_circuits()[0]
        operator, inputs, outputs = circuit_to_tdd(circuit, qts.manager)
        state = qts.initial.basis[0]
        sum_over = input_sum_indices(inputs, outputs)
        return qts, state, operator, sum_over

    def test_inline_matches_plain_contract(self):
        qts, state, operator, sum_over = self._operator_setup()
        expected = state.contract(operator, sum_over)
        executor = SlicedExecutor(qts.manager, depth=2)
        got = executor.contract(state, operator, sum_over)
        assert np.allclose(got.to_numpy(), expected.to_numpy())

    def test_depth_beyond_sum_indices(self):
        # more slice levels than summed indices: just uses what exists
        qts, state, operator, sum_over = self._operator_setup("ghz", 3)
        executor = SlicedExecutor(qts.manager, depth=64)
        expected = state.contract(operator, sum_over)
        got = executor.contract(state, operator, sum_over)
        assert np.allclose(got.to_numpy(), expected.to_numpy())

    def test_operator_slices_cached(self):
        qts, state, operator, sum_over = self._operator_setup()
        executor = SlicedExecutor(qts.manager, depth=2)
        executor.contract(state, operator, sum_over)
        cached = executor._slice_cache[operator]
        executor.contract(state, operator, sum_over)
        assert executor._slice_cache[operator] is cached

    def test_dead_state_slices_evaporate(self):
        import gc
        qts, state, operator, sum_over = self._operator_setup()
        executor = SlicedExecutor(qts.manager, depth=2)
        transient = state.scaled(1.0)  # a handle nothing else holds
        executor.contract(transient, operator, sum_over)
        alive = len(executor._slice_cache)
        del transient
        gc.collect()
        assert len(executor._slice_cache) < alive

    def test_zero_state_gives_zero_image(self):
        from repro.tdd import construction as tc
        qts, state, operator, sum_over = self._operator_setup()
        zero = tc.zero(qts.manager, list(state.indices))
        executor = SlicedExecutor(qts.manager, depth=2)
        result = executor.contract(zero, operator, sum_over)
        assert result.is_zero


class TestTopLevelPlumbing:
    def test_reachable_space_sliced(self):
        mono = reachable_space(models.build_model("qrw", 3), BASIC,
                               max_iterations=4)
        sliced = reachable_space(models.build_model("qrw", 3),
                                 BASIC.replace(strategy="sliced"),
                                 max_iterations=4)
        assert sliced.dimensions == mono.dimensions
        assert np.allclose(sliced.subspace.to_dense(),
                           mono.subspace.to_dense())

    def test_model_checker_strategy(self):
        qts = models.grover_qts(4, initial="invariant")
        checker = ModelChecker(qts, BASIC.replace(strategy="sliced"))
        assert checker.check_invariant(strict=True)
