"""Frontier-set reachability refinement against the dense oracle."""

import pytest

from repro.image.engine import make_engine
from repro.mc.checker import ModelChecker
from repro.mc.config import CheckerConfig
from repro.mc.reachability import reachable_space
from repro.systems import models
from repro.utils.stats import StatsRecorder

from tests.helpers import dense_reach_oracle, subspace_to_dense

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")
#: the contraction method with small partition blocks
CONTRACTION_K2 = CheckerConfig(method="contraction",
                               method_params={"k1": 2, "k2": 2})


class TestFrontier:
    @pytest.mark.parametrize("builder", [
        lambda: models.qrw_qts(3, 0.2),
        lambda: models.ghz_qts(4),
        lambda: models.bitflip_qts(),
        lambda: models.grover_qts(4),
    ])
    def test_agrees_with_full_iteration(self, builder):
        expected, ladder = dense_reach_oracle(builder())
        fast = reachable_space(builder(), BASIC)
        assert fast.converged
        assert fast.dimensions == ladder
        assert subspace_to_dense(fast.subspace).equals(expected)

    def test_frontier_images_fewer_states(self):
        """Frontier mode images each reachable direction once, strictly
        fewer states than the full iteration, which re-images all of
        ``S_k`` every round.  The two-step qrw5 walk stops at dimension
        15 of 32, short of saturation, so every direction is imaged."""
        qts = models.qrw_qts(5, 0.2, steps=2)
        kraus = len(qts.image_circuits())
        fast = reachable_space(qts, BASIC)
        _, ladder = dense_reach_oracle(models.qrw_qts(5, 0.2, steps=2))
        assert fast.dimensions == ladder
        assert fast.dimension == 15
        # the basic method runs one contraction per state and circuit
        assert fast.stats.contractions == fast.dimension * kraus
        assert fast.stats.contractions < sum(ladder[:-1]) * kraus

    def test_saturated_walk_stops_imaging(self):
        """The qrw3 walk spans all 8 dimensions: its ladder matches the
        dense oracle, it images fewer states than it reached, and one
        more round on the full result contracts nothing."""
        qts = models.qrw_qts(3, 0.2)
        kraus = len(qts.all_kraus_circuits())
        fast = reachable_space(qts, BASIC)
        _, ladder = dense_reach_oracle(models.qrw_qts(3, 0.2))
        assert fast.dimensions == ladder
        assert fast.subspace.is_full()
        assert fast.stats.contractions < fast.dimension * kraus
        engine = make_engine(qts, BASIC)
        stats = StatsRecorder()
        again = engine.extend(fast.subspace, fast.subspace, stats)
        assert again.dimension == 8
        assert stats.contractions == 0

    def test_frontier_with_contraction_method(self):
        expected, _ = dense_reach_oracle(models.qrw_qts(3, 0.3))
        fast = reachable_space(models.qrw_qts(3, 0.3), CONTRACTION_K2)
        assert subspace_to_dense(fast.subspace).equals(expected)


class TestFrontierBackwardBounded:
    """Frontier mode combined with backward analysis and bound > 0.

    Each feature was previously only tested independently; these pin
    down the combination on both backends.
    """

    def _tdd(self, bound):
        qts = models.qrw_qts(3, 0.2)
        config = BASIC.replace(direction="backward", bound=bound)
        return reachable_space(qts, config,
                               initial=qts.named_subspace("start"))

    def _dense(self, bound):
        qts = models.qrw_qts(3, 0.2)
        config = CheckerConfig(backend="dense", direction="backward",
                               bound=bound)
        return reachable_space(qts, config,
                               initial=qts.named_subspace("start"))

    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_tdd_frontier_backward_bounded_matches_full(self, bound):
        qts = models.qrw_qts(3, 0.2)
        expected, ladder = dense_reach_oracle(
            qts, "backward", bound, initial=qts.named_subspace("start"))
        fast = self._tdd(bound=bound)
        assert fast.dimensions == ladder
        assert fast.bound == bound
        assert fast.iterations <= bound
        assert subspace_to_dense(fast.subspace).equals(expected)

    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_dense_frontier_backward_bounded_matches_tdd(self, bound):
        symbolic = self._tdd(bound=bound)
        dense = self._dense(bound=bound)
        assert dense.dimensions == symbolic.dimensions
        assert dense.converged == symbolic.converged
        assert subspace_to_dense(dense.subspace).equals(
            subspace_to_dense(symbolic.subspace))

    def test_both_backends_frontier_backward_unbounded(self):
        symbolic = self._tdd(bound=0)
        dense = self._dense(bound=0)
        assert symbolic.converged and dense.converged
        assert dense.dimensions == symbolic.dimensions
        assert subspace_to_dense(dense.subspace).equals(
            subspace_to_dense(symbolic.subspace))

    @pytest.mark.parametrize("backend_config", [
        CheckerConfig(method="basic", direction="backward", bound=2),
        CheckerConfig(backend="dense", direction="backward", bound=2),
    ])
    def test_check_frontier_backward_bounded_verdicts_agree(
            self, backend_config):
        result = ModelChecker(models.grover_qts(3), backend_config).check(
            "AG plus")
        assert result.verdict == "violated"
        assert result.direction == "backward"
        assert result.bound == 2


class TestCombinators:
    def test_then_composes_kraus(self):
        qts = models.bitflip_qts()
        op = qts.operation("correct")
        squared = op.then(op)
        assert squared.num_kraus == 16
        assert squared.is_trace_nonincreasing()

    def test_then_width_mismatch(self):
        from repro.errors import SystemError_
        from repro.systems.operations import QuantumOperation
        from repro.circuits.circuit import QuantumCircuit
        a = QuantumOperation.unitary("a", QuantumCircuit(2))
        b = QuantumOperation.unitary("b", QuantumCircuit(3))
        with pytest.raises(SystemError_):
            a.then(b)

    def test_power_matches_repeated_image(self):
        """image under T^2 == image of image under T."""
        from repro.image.engine import compute_image
        from repro.systems.operations import QuantumOperation
        from repro.systems.qts import QuantumTransitionSystem
        from repro.circuits.library import ghz_circuit

        base = QuantumOperation.unitary("g", ghz_circuit(3))
        qts1 = QuantumTransitionSystem(3, [base.power(2)])
        qts1.set_initial_basis_states([[0, 0, 0]])
        twice = compute_image(qts1, config=BASIC).subspace

        qts2 = QuantumTransitionSystem(
            3, [QuantumOperation.unitary("g", ghz_circuit(3))])
        qts2.set_initial_basis_states([[0, 0, 0]])
        once = compute_image(qts2, config=BASIC).subspace
        again = compute_image(qts2, subspace=once, config=BASIC).subspace
        assert subspace_to_dense(twice).equals(subspace_to_dense(again))

    def test_identity_operation(self):
        from repro.image.engine import compute_image
        from repro.systems.operations import QuantumOperation
        from repro.systems.qts import QuantumTransitionSystem
        qts = QuantumTransitionSystem(
            2, [QuantumOperation.identity("i", 2)])
        qts.set_initial_basis_states([[0, 1]])
        image = compute_image(qts, config=BASIC).subspace
        assert image.equals(qts.initial)
