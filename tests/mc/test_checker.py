"""The ModelChecker facade."""

from repro.mc.checker import ModelChecker
from repro.mc.config import CheckerConfig
from repro.systems import models

BASIC = CheckerConfig(method="basic")
#: the contraction method with small partition blocks
CONTRACTION_K2 = CheckerConfig(method="contraction",
                               method_params={"k1": 2, "k2": 2})


class TestChecker:
    def test_image(self):
        checker = ModelChecker(models.bitflip_qts(), BASIC)
        result = checker.image()
        assert result.dimension == 1
        assert result.stats.seconds >= 0

    def test_reachable(self):
        checker = ModelChecker(models.qrw_qts(3, 0.2), CONTRACTION_K2)
        trace = checker.reachable()
        assert trace.converged

    def test_check_invariant(self):
        qts = models.grover_qts(4, initial="invariant")
        checker = ModelChecker(
            qts, CheckerConfig(method="addition", method_params={"k": 1}))
        assert checker.check_invariant(strict=True)

    def test_check_image_equals(self):
        qts = models.bitflip_qts()
        checker = ModelChecker(qts, BASIC)
        expected = qts.space.span([qts.space.basis_state([0] * 6)])
        assert checker.check_image_equals(expected)

    def test_check_safety_grover(self):
        qts = models.grover_qts(4, initial="invariant")
        checker = ModelChecker(
            qts, CONTRACTION_K2)
        assert checker.check_safety(qts.initial)

    def test_check_safety_violated(self):
        qts = models.qrw_qts(3, 0.2)
        checker = ModelChecker(qts, BASIC)
        # the walk escapes its initial 1-dim space immediately
        assert not checker.check_safety(qts.initial, max_iterations=2)

    def test_method_params_passed_through(self):
        checker = ModelChecker(
            models.ghz_qts(3),
            CheckerConfig(method="contraction",
                          method_params={"k1": 1, "k2": 1}))
        assert checker.image().dimension == 1
