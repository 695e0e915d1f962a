"""Backward (preimage) analysis, bounded specs and witness traces.

The acceptance bar of the subsystem: backward checks agree with
forward ones, bounded checks stop at the bound, and a failing ``AG``
(or a satisfied ``EF``) yields a counterexample trace whose forward
replay reproduces the event — with identical verdicts and trace
lengths on the ``tdd`` and ``dense`` backends.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.mc.checker import ModelChecker
from repro.mc.config import CheckerConfig
from repro.mc.reachability import reachable_space
from repro.mc.witness import extract_witness_trace
from repro.systems import models

from tests.helpers import subspace_to_dense

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")
#: the contraction method with small partition blocks
CONTRACTION_K2 = CheckerConfig(method="contraction",
                               method_params={"k1": 2, "k2": 2})

TDD = CheckerConfig(method="basic")
DENSE = CheckerConfig(backend="dense")


class TestAdjointSystem:
    def test_adjoint_operations_are_kraus_daggers(self):
        qts = models.bitflip_qts()
        for op, adj in zip(qts.operations, qts.adjoint().operations):
            for mat, amat in zip(op.kraus_matrices(),
                                 adj.kraus_matrices()):
                assert np.allclose(amat, mat.conj().T)

    def test_adjoint_is_cached_and_involutive(self):
        qts = models.grover_qts(3)
        adj = qts.adjoint()
        assert qts.adjoint() is adj
        assert adj.adjoint() is qts
        op = qts.operations[0]
        assert op.adjoint().adjoint() is op

    def test_adjoint_shares_space_and_atoms(self):
        qts = models.grover_qts(3)
        adj = qts.adjoint()
        assert adj.space is qts.space
        assert adj.named_subspace("marked") is qts.named_subspace("marked")
        assert adj.initial is qts.initial

    def test_adjoint_shares_the_operator_cache(self):
        qts = models.grover_qts(3)
        circuit = qts.adjoint().all_kraus_circuits()[0]
        built = []

        def build(observer):
            built.append(circuit)
            return "diagrams"

        assert qts.adjoint().operator(("basic",), circuit, build)[0] \
            == "diagrams"
        assert qts.operator(("basic",), circuit, build)[0] == "diagrams"
        assert qts.operator(("addition", 1), circuit, build)[0] \
            == "diagrams"
        assert len(built) == 2

    def test_adjoint_tracks_initial_space_updates(self):
        qts = models.ghz_qts(3)
        qts.adjoint()
        qts.set_initial_basis_states([[1, 1, 1]])
        assert qts.adjoint().initial is qts.initial


class TestBackwardReachability:
    def test_unitary_preimage_roundtrip(self):
        # for a unitary op the backward space from T(S0) contains S0
        qts = models.ghz_qts(3)
        forward = reachable_space(qts, BASIC)
        backward = reachable_space(qts,
                                   CheckerConfig(method="basic",
                                                 direction="backward"),
                                   initial=forward.subspace)
        assert backward.subspace.contains(qts.initial)
        assert backward.direction == "backward"

    @pytest.mark.parametrize("method,params", [
        ("basic", {}),
        ("addition", {"k": 1}),
        ("contraction", {"k1": 2, "k2": 2}),
        ("hybrid", {"k": 1, "k1": 2, "k2": 2}),
    ])
    def test_all_methods_agree_backward(self, method, params):
        def run(run_method, run_params):
            qts = models.qrw_qts(3, 0.2)
            return reachable_space(qts,
                                   CheckerConfig(method=run_method,
                                                 direction="backward",
                                                 method_params=run_params),
                                   initial=qts.named_subspace("start"))
        base = run("basic", {})
        trace = run(method, params)
        assert trace.dimensions == base.dimensions
        assert subspace_to_dense(trace.subspace).equals(
            subspace_to_dense(base.subspace))

    def test_dense_backend_matches_tdd_backward(self):
        qts = models.qrw_qts(3, 0.2)
        start = qts.named_subspace("start")
        symbolic = reachable_space(qts,
                                   CheckerConfig(method="basic",
                                                 direction="backward"),
                                   initial=start)
        from repro.mc.backends import DenseStatevectorBackend
        dense = DenseStatevectorBackend().reachable(
            qts, initial=start, direction="backward")
        assert dense.dimensions == symbolic.dimensions
        assert subspace_to_dense(dense.subspace).equals(
            subspace_to_dense(symbolic.subspace))

    def test_bound_limits_image_steps(self):
        qts = models.qrw_qts(3, 0.2)
        trace = reachable_space(qts, CheckerConfig(method="basic", bound=2))
        assert trace.iterations <= 2
        assert trace.bound == 2
        full = reachable_space(models.qrw_qts(3, 0.2), BASIC)
        assert trace.dimension <= full.dimension

    def test_bound_tighter_than_max_iterations_wins(self):
        qts = models.qrw_qts(3, 0.2)
        trace = reachable_space(qts, CheckerConfig(method="basic", bound=1),
                                max_iterations=5)
        assert trace.iterations == 1


class TestBackwardCheck:
    @pytest.mark.parametrize("config", [TDD, DENSE], ids=["tdd", "dense"])
    @pytest.mark.parametrize("spec,expected", [
        ("AG inv", True),
        ("AG plus", False),
        ("AG marked", False),
        ("EF marked", True),
        ("EF ancilla_plus", False),
        ("AG ~ancilla_plus", True),
    ])
    def test_backward_agrees_with_forward(self, config, spec, expected):
        qts = models.grover_qts(3)
        forward = ModelChecker(qts, config).check(spec)
        back = ModelChecker(models.grover_qts(3),
                            config.replace(direction="backward")
                            ).check(spec)
        assert forward.holds == back.holds == expected
        assert back.direction == "backward"

    def test_backward_witness_lies_in_initial_space(self):
        qts = models.grover_qts(3)
        result = ModelChecker(
            qts, TDD.replace(direction="backward")).check("AG plus")
        assert not result.holds
        assert result.witness is not None
        for vector in result.witness.basis:
            assert qts.initial.contains_state(vector)

    def test_backward_full_space_ag_trivially_holds(self):
        # [[phi]]^perp is the zero subspace: nothing to walk back from
        qts = models.grover_qts(3)
        full = qts.space.span(
            [qts.space.basis_state([int(b) for b in f"{i:03b}"])
             for i in range(8)])
        qts.register_subspace("full", full)
        result = ModelChecker(
            qts, TDD.replace(direction="backward")).check("AG full")
        assert result.holds
        assert result.reachable_dimension == 0

    def test_backward_bounded_terminates_within_k(self):
        for config in (TDD, DENSE):
            result = ModelChecker(
                models.qrw_qts(3, 0.2),
                config.replace(direction="backward", bound=2)
            ).check("EF start")
            assert result.iterations <= 2
            assert result.bound == 2


class TestBoundedSpecs:
    def test_spec_bound_limits_iterations(self):
        qts = models.qrw_qts(3, 0.2)
        result = ModelChecker(qts, TDD).check("AG[<=1] init")
        assert result.iterations <= 1
        assert result.bound == 1
        assert result.spec == "AG[<=1] init"

    def test_spec_bound_wins_over_config_bound(self):
        qts = models.qrw_qts(3, 0.2)
        result = ModelChecker(qts, TDD.replace(bound=5)).check(
            "AG[<=1] init")
        assert result.bound == 1

    def test_bounded_ef_needs_enough_steps(self):
        # the GHZ target is reached in one step, so EF[<=1] holds and
        # a bound of 1 is also where AG zero first fails
        qts = models.ghz_qts(3)
        checker = ModelChecker(qts, TDD)
        assert checker.check("EF[<=1] target").holds
        assert not checker.check("AG[<=1] zero").holds

    def test_bounded_verdicts_agree_across_backends(self):
        for spec in ("EF[<=1] codeword", "AG[<=1] errors"):
            tdd = ModelChecker(models.bitflip_qts(), TDD).check(spec)
            dense = ModelChecker(models.bitflip_qts(), DENSE).check(spec)
            assert tdd.holds == dense.holds
            assert tdd.trace_length == dense.trace_length


class TestWitnessTraces:
    @pytest.mark.parametrize("config", [TDD, DENSE], ids=["tdd", "dense"])
    def test_failed_ag_on_grover_yields_valid_trace(self, config):
        qts = models.grover_qts(3)
        result = ModelChecker(qts, config).check("AG plus")
        assert not result.holds
        trace = result.witness_trace
        assert trace is not None and trace.valid
        assert trace.symbols == ["G"]
        assert [s.dimension for s in trace.subspaces] == [1, 1]

    @pytest.mark.parametrize("config", [TDD, DENSE], ids=["tdd", "dense"])
    def test_failed_ag_on_bitflip_yields_valid_trace(self, config):
        result = ModelChecker(models.bitflip_qts(), config).check(
            "AG errors")
        assert not result.holds
        trace = result.witness_trace
        assert trace is not None and trace.valid
        assert trace.symbols == ["correct"]

    def test_trace_identical_across_backends(self):
        for spec in ("AG plus", "AG errors", "EF codeword"):
            model = (models.bitflip_qts() if "errors" in spec
                     or "codeword" in spec else models.grover_qts(3))
            other = (models.bitflip_qts() if "errors" in spec
                     or "codeword" in spec else models.grover_qts(3))
            tdd = ModelChecker(model, TDD).check(spec)
            dense = ModelChecker(other, DENSE).check(spec)
            assert tdd.verdict == dense.verdict
            assert tdd.trace_length == dense.trace_length
            t1, t2 = tdd.witness_trace, dense.witness_trace
            assert (t1 is None) == (t2 is None)
            if t1 is not None:
                assert t1.symbols == t2.symbols
                assert t1.valid and t2.valid

    def test_forward_replay_reproduces_the_violation(self):
        qts = models.grover_qts(3)
        result = ModelChecker(qts, TDD).check("AG plus")
        trace = result.witness_trace
        plus = qts.named_subspace("plus")
        # the final replay subspace escapes the claimed invariant
        final = trace.subspaces[-1]
        assert any(not plus.contains_state(v) for v in final.basis)
        # and the replay started inside the initial space
        assert qts.initial.contains(trace.subspaces[0])

    def test_satisfied_ef_trace_reaches_the_target(self):
        qts = models.bitflip_qts()
        result = ModelChecker(qts, TDD).check("EF codeword")
        assert result.holds
        trace = result.witness_trace
        assert trace is not None and trace.valid
        codeword = qts.named_subspace("codeword")
        final = trace.subspaces[-1]
        assert any(codeword.project_state(v).norm() > 1e-7
                   for v in final.basis)

    def test_violation_in_initial_space_gives_empty_trace(self):
        result = ModelChecker(models.bitflip_qts(), TDD).check(
            "AG codeword")
        assert not result.holds
        trace = result.witness_trace
        assert trace is not None and trace.valid
        assert trace.length == 0

    def test_no_trace_when_spec_holds(self):
        result = ModelChecker(models.grover_qts(3), TDD).check("AG inv")
        assert result.holds
        assert result.witness_trace is None

    def test_witness_trace_can_be_skipped(self):
        result = ModelChecker(models.grover_qts(3), TDD).check(
            "AG plus", witness_trace=False)
        assert not result.holds
        assert result.witness_trace is None

    def test_extractor_returns_none_without_event(self):
        qts = models.grover_qts(3)
        assert extract_witness_trace(qts, "AG",
                                     qts.named_subspace("inv")) is None
        assert extract_witness_trace(
            qts, "EF", qts.named_subspace("ancilla_plus")) is None

    def test_as_dict_carries_trace_columns(self):
        flat = ModelChecker(models.grover_qts(3), TDD).check(
            "AG plus").as_dict()
        assert flat["direction"] == "forward"
        assert flat["bound"] == 0
        assert flat["trace_length"] == 1
        assert flat["trace_symbols"] == "G"
        assert flat["trace_valid"] is True
        held = ModelChecker(models.grover_qts(3), TDD).check(
            "AG inv").as_dict()
        assert held["trace_length"] == 0
        assert held["trace_symbols"] == ""


class TestCrossValidationWithTraces:
    def test_cross_validate_compares_trace_lengths(self):
        qts = models.grover_qts(3)
        checker = ModelChecker(qts, CONTRACTION_K2)
        report = checker.cross_validate(spec="AG plus")
        assert report.ok
        assert report.tdd_trace_length == report.dense_trace_length == 1


class TestConfigSurface:
    def test_direction_and_bound_validate(self):
        with pytest.raises(ConfigError):
            CheckerConfig(direction="sideways")
        with pytest.raises(ConfigError):
            CheckerConfig(bound=-1)
        with pytest.raises(ConfigError):
            CheckerConfig(bound="three")

    def test_direction_and_bound_round_trip(self):
        config = CheckerConfig(direction="backward", bound=3)
        again = CheckerConfig.from_json(config.to_json())
        assert again == config
        assert again.direction == "backward" and again.bound == 3

    def test_describe_mentions_non_defaults(self):
        text = CheckerConfig(direction="backward", bound=2).describe()
        assert "direction=backward" in text
        assert "bound=2" in text
        assert "direction" not in CheckerConfig().describe()

    def test_dense_accepts_direction_and_bound(self):
        config = CheckerConfig(backend="dense", direction="backward",
                               bound=1)
        assert config.direction == "backward"
