"""The unified check() verb: one CheckResult shape on every engine."""

import pytest

from repro.errors import SpecError
from repro.mc.checker import ModelChecker
from repro.mc.config import CheckerConfig
from repro.mc.logic import Always, Atomic
from repro.mc.specs import parse_spec
from repro.systems import models

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")
#: the contraction method with small partition blocks
CONTRACTION_K2 = CheckerConfig(method="contraction",
                               method_params={"k1": 2, "k2": 2})

#: every symbolic configuration of the acceptance matrix: the four
#: image methods
TDD_CONFIGS = [
    CheckerConfig(method="basic"),
    CheckerConfig(method="addition", method_params={"k": 1}),
    CONTRACTION_K2,
    CheckerConfig(method="hybrid",
                  method_params={"k": 1, "k1": 2, "k2": 2}),
]

ALL_CONFIGS = TDD_CONFIGS + [CheckerConfig(backend="dense")]


class TestVerdictsAcrossEngines:
    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=str)
    def test_ag_inv_holds_everywhere(self, config):
        result = ModelChecker(models.grover_qts(3), config).check("AG inv")
        assert result.holds
        assert result.verdict == "holds"
        assert result.reachable_dimension == 2
        assert result.converged

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=str)
    def test_ef_marked_holds_everywhere(self, config):
        result = ModelChecker(models.grover_qts(3), config).check(
            "EF marked")
        assert result.holds
        assert result.witness is not None
        assert result.witness_dimension >= 1

    def test_string_and_ast_specs_agree(self):
        qts = models.grover_qts(3)
        checker = ModelChecker(qts, CheckerConfig(method="basic"))
        via_text = checker.check("AG inv")
        via_ast = checker.check(parse_spec("AG inv"))
        assert via_text.holds == via_ast.holds
        assert via_text.spec == via_ast.spec == "AG inv"


class TestAlways:
    def test_violation_carries_escaping_directions(self):
        qts = models.grover_qts(3)
        result = ModelChecker(qts, CheckerConfig(method="basic")).check(
            "AG marked")
        assert not result.holds
        assert result.witness is not None
        assert result.witness_dimension >= 1
        # the witness directions are reachable but outside the target
        marked = qts.named_subspace("marked")
        for vector in result.witness.basis:
            assert result.witness.space is qts.space
            assert not marked.contains_state(vector)

    def test_connectives_in_specs(self):
        qts = models.grover_qts(3)
        checker = ModelChecker(qts, CheckerConfig(method="basic"))
        assert checker.check("AG (plus | marked)").holds
        assert not checker.check("AG (inv & marked)").holds
        assert checker.check("EF (inv & marked)").holds

    def test_negation_spec(self):
        qts = models.grover_qts(3)
        checker = ModelChecker(qts, CheckerConfig(method="basic"))
        # the walk never reaches the ancilla-|+> ray
        assert checker.check("AG ~ancilla_plus").holds

    def test_max_iterations_bounds_the_fixpoint(self):
        qts = models.qrw_qts(3, 0.2)
        checker = ModelChecker(qts, CheckerConfig(method="basic"))
        bounded = checker.check("AG init", max_iterations=1)
        assert not bounded.holds
        assert bounded.iterations == 1


class TestEventually:
    def test_orthogonal_target_is_violated(self):
        result = ModelChecker(models.grover_qts(3),
                              CheckerConfig(method="basic")).check(
            "EF ancilla_plus")
        assert not result.holds
        assert result.witness is None

    def test_witness_lies_inside_the_target(self):
        qts = models.grover_qts(3)
        result = ModelChecker(qts, CheckerConfig(method="basic")).check(
            "EF marked")
        marked = qts.named_subspace("marked")
        assert result.witness is not None
        for vector in result.witness.basis:
            assert marked.contains_state(vector)


class TestBareProposition:
    def test_now_kind_checks_the_initial_space(self):
        qts = models.grover_qts(3, initial="invariant")
        checker = ModelChecker(qts, CheckerConfig(method="basic"))
        assert checker.check("inv").holds
        assert checker.check("inv").kind == "now"
        assert not checker.check("marked").holds

    def test_no_reachability_iterations(self):
        qts = models.grover_qts(3)
        result = ModelChecker(qts, CheckerConfig(method="basic")).check(
            "init")
        assert result.iterations == 0


class TestCheckResultShape:
    def test_config_echo_and_as_dict(self):
        config = CONTRACTION_K2
        result = ModelChecker(models.grover_qts(3), config).check("AG inv")
        assert result.config is config
        flat = result.as_dict()
        assert flat["verdict"] == "holds"
        assert flat["spec"] == "AG inv"
        assert flat["config"]["method"] == "contraction"
        assert "cache_hits" in flat

    def test_repr_is_informative(self):
        result = ModelChecker(models.grover_qts(3),
                              CheckerConfig(method="basic")).check("AG inv")
        assert "AG inv" in repr(result)
        assert "holds" in repr(result)

    def test_kernel_stats_recorded_on_tdd(self):
        result = ModelChecker(models.grover_qts(3),
                              CheckerConfig(method="basic")).check("AG inv")
        assert result.stats.seconds > 0
        assert result.stats.cache_hits + result.stats.cache_misses > 0

    def test_invalid_spec_type_rejected(self):
        checker = ModelChecker(models.ghz_qts(3),
                               CheckerConfig(method="basic"))
        with pytest.raises(SpecError):
            checker.check(42)


class TestChecksOnTopOfCheck:
    def test_invariant_matches_direct_spec(self):
        qts = models.grover_qts(3, initial="invariant")
        checker = ModelChecker(qts, CheckerConfig(method="basic"))
        assert checker.check_invariant() == \
            checker.check(Always(Atomic(qts.initial, "S"))).holds

    def test_safety_is_ag(self):
        qts = models.grover_qts(3)
        checker = ModelChecker(qts, CheckerConfig(method="basic"))
        inv = qts.named_subspace("inv")
        assert checker.check_safety(inv) == \
            checker.check(Always(Atomic(inv, "inv"))).holds

    def test_cross_validate_spec_agreement(self):
        qts = models.grover_qts(3)
        checker = ModelChecker(qts, CONTRACTION_K2)
        report = checker.cross_validate(spec="AG inv")
        assert report.ok
        assert report.tdd_verdict == report.dense_verdict == "holds"
        # and a violated spec also agrees across engines
        report = checker.cross_validate(spec="AG marked")
        assert report.ok
        assert report.tdd_verdict == "violated"

    def test_temporal_helpers_route_through_check(self):
        qts = models.grover_qts(3)
        from repro.mc.logic import check_always, check_eventually_overlaps
        assert check_always(qts, Atomic(qts.named_subspace("inv"), "inv"),
                            BASIC)
        assert check_eventually_overlaps(
            qts, Atomic(qts.named_subspace("marked"), "marked"), BASIC)

    def test_temporal_helpers_keep_reachability_kwargs(self):
        # the helpers forward the reachability options to check()
        qts = models.qrw_qts(3, 0.2)
        from repro.mc.logic import check_always, check_eventually_overlaps
        start = Atomic(qts.named_subspace("start"), "start")
        assert not check_always(qts, start, BASIC, max_iterations=2)
        assert check_eventually_overlaps(
            qts, start, BASIC)

    def test_invariant_uses_one_fixpoint_round(self):
        # T(S) <= S is decided by a single join step — a non-invariant
        # subspace must not trigger a run-to-saturation fixpoint
        qts = models.qrw_qts(3, 0.2)
        checker = ModelChecker(qts, CheckerConfig(method="basic"))
        result = checker.check(Always(Atomic(qts.initial, "S")),
                               initial=qts.initial, max_iterations=1)
        assert not result.holds
        assert result.iterations == 1
        assert not checker.check_invariant()
