"""Reachability fixpoints."""

import pytest

from repro.errors import ReproError
from repro.mc.config import CheckerConfig
from repro.mc.reachability import reachable_space
from repro.systems import models

from tests.helpers import subspace_to_dense

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")
#: the contraction method with small partition blocks
CONTRACTION_K2 = CheckerConfig(method="contraction",
                               method_params={"k1": 2, "k2": 2})


class TestFixpoint:
    def test_grover_invariant_is_immediate_fixpoint(self):
        qts = models.grover_qts(4, initial="invariant")
        trace = reachable_space(qts, BASIC)
        assert trace.converged
        assert trace.iterations == 1
        assert trace.dimension == 2

    def test_dimensions_monotone(self):
        qts = models.qrw_qts(3, 0.2)
        trace = reachable_space(qts, CONTRACTION_K2)
        assert trace.dimensions == sorted(trace.dimensions)
        assert trace.converged

    def test_qrw_fills_space(self):
        qts = models.qrw_qts(3, 0.2)
        trace = reachable_space(qts, BASIC)
        assert trace.dimension == 2 ** 3

    def test_reachable_contains_initial(self):
        qts = models.ghz_qts(3)
        trace = reachable_space(qts, BASIC)
        assert trace.subspace.contains(qts.initial)

    def test_max_iterations_bound(self):
        qts = models.qrw_qts(3, 0.2)
        trace = reachable_space(qts, BASIC, max_iterations=1)
        assert not trace.converged
        assert trace.iterations == 1

    def test_zero_initial_rejected(self):
        qts = models.ghz_qts(3)
        qts.initial = qts.space.zero_subspace()
        with pytest.raises(ReproError):
            reachable_space(qts, BASIC)

    def test_methods_agree_on_reachable_space(self):
        traces = {}
        for method, params in (("basic", {}),
                               ("contraction", {"k1": 2, "k2": 2})):
            qts = models.qrw_qts(3, 0.3)
            config = CheckerConfig(method=method, method_params=params)
            traces[method] = reachable_space(qts, config)
        d1 = subspace_to_dense(traces["basic"].subspace)
        d2 = subspace_to_dense(traces["contraction"].subspace)
        assert d1.equals(d2)
