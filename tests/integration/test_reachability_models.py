"""Reachability across the model families, cross-method."""

import pytest

from repro.mc.config import CheckerConfig
from repro.mc.reachability import reachable_space
from repro.systems import models

from tests.helpers import subspace_to_dense

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")
#: the contraction method with small partition blocks
CONTRACTION_K2 = CheckerConfig(method="contraction",
                               method_params={"k1": 2, "k2": 2})


class TestQRWReachability:
    @pytest.mark.parametrize("n", [3, 4])
    def test_walk_fills_space(self, n):
        qts = models.qrw_qts(n, 0.3)
        trace = reachable_space(qts, CONTRACTION_K2)
        assert trace.converged
        assert trace.dimension == 2 ** n

    def test_noiseless_walk_also_fills(self):
        qts = models.qrw_qts(3, 0.0)
        trace = reachable_space(qts, BASIC)
        assert trace.dimension == 8


class TestGroverReachability:
    def test_invariant_space_stays_two_dimensional(self):
        qts = models.grover_qts(4, initial="invariant")
        trace = reachable_space(qts, CONTRACTION_K2)
        assert trace.converged
        assert trace.dimension == 2
        assert trace.iterations == 1

    def test_plus_initial_reaches_invariant(self):
        qts = models.grover_qts(4)
        trace = reachable_space(qts, BASIC)
        assert trace.converged
        assert trace.dimension == 2  # span{|+..+->, G|+..+->}


class TestBitflipReachability:
    def test_correction_converges(self):
        qts = models.bitflip_qts()
        trace = reachable_space(qts, BASIC)
        assert trace.converged
        # from error states: one step lands on |000000>; from there
        # the corrector keeps states inside the no-error code space
        assert trace.dimension >= 4

    def test_methods_agree(self):
        dense = {}
        for method, params in (("basic", {}),
                               ("contraction", {"k1": 3, "k2": 2})):
            qts = models.bitflip_qts()
            trace = reachable_space(qts,
                                    CheckerConfig(method=method,
                                                  method_params=params))
            dense[method] = subspace_to_dense(trace.subspace)
        assert dense["basic"].equals(dense["contraction"])
