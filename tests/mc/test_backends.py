"""The two backends: the symbolic tdd engine vs the dense statevector."""

import pytest

from repro.errors import ReproError
from repro.image.dense import DenseImageEngine
from repro.image.engine import ImageEngine, compute_image, make_engine
from repro.mc.checker import ModelChecker, cross_validate
from repro.mc.config import BACKENDS, CheckerConfig
from repro.mc.logic import Always, Atomic
from repro.mc.reachability import reachable_space
from repro.systems import models

#: the dense statevector reference at its defaults
DENSE = CheckerConfig(backend="dense")

#: the contraction method with small partition blocks
CONTRACTION_K2 = CheckerConfig(method="contraction",
                               method_params={"k1": 2, "k2": 2})
#: the contraction method at the paper's Table I setting
CONTRACTION_K4 = CheckerConfig(method="contraction",
                               method_params={"k1": 4, "k2": 4})


class TestFactory:
    def test_names(self):
        assert set(BACKENDS) == {"tdd", "dense"}
        qts = models.ghz_qts(3)
        assert type(make_engine(qts, CheckerConfig())) is ImageEngine
        assert type(make_engine(qts, DENSE)) is DenseImageEngine

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError):
            ModelChecker(models.ghz_qts(3),
                         CheckerConfig(backend="quantum-annealer"))

    def test_tdd_backend_validates_method(self):
        with pytest.raises(ReproError):
            ModelChecker(models.ghz_qts(3),
                         CheckerConfig(method="nonsense"))


class TestDenseBackend:
    def test_image_matches_tdd(self):
        for build in (lambda: models.ghz_qts(3),
                      lambda: models.grover_qts(3),
                      lambda: models.qrw_qts(3, 0.2)):
            tdd_result = ModelChecker(build(), CONTRACTION_K2).image()
            dense_result = ModelChecker(build(), DENSE).image()
            assert (tdd_result.subspace.dimension
                    == dense_result.subspace.dimension)

    def test_image_subspace_is_tdd_backed(self):
        qts = models.ghz_qts(3)
        result = compute_image(qts, config=DENSE)
        # same result type as the symbolic backend: a TDD Subspace
        assert result.subspace.space is qts.space
        assert result.stats.extra["backend"] == "dense"

    def test_reachable_matches_tdd(self):
        dense_trace = ModelChecker(models.qrw_qts(3, 0.2), DENSE).reachable()
        tdd_trace = reachable_space(models.qrw_qts(3, 0.2), CONTRACTION_K2)
        assert dense_trace.dimensions == tdd_trace.dimensions
        assert dense_trace.converged

    def test_size_guard(self):
        checker = ModelChecker(models.ghz_qts(5),
                               CheckerConfig(backend="dense", max_qubits=4))
        with pytest.raises(ReproError, match="dense backend refuses"):
            checker.image()
        with pytest.raises(ReproError, match="dense backend refuses"):
            checker.reachable()


class TestCrossValidation:
    def test_agreement_on_models(self):
        for build in (lambda: models.ghz_qts(3),
                      lambda: models.bitflip_qts(),
                      lambda: models.qrw_qts(3, 0.1)):
            report = cross_validate(build(), config=CONTRACTION_K2)
            assert report.ok, repr(report)
            assert report.tdd_dimension == report.dense_dimension

    def test_checker_facade(self):
        checker = ModelChecker(models.grover_qts(3),
                               CheckerConfig(method="basic"))
        report = checker.cross_validate()
        assert report.ok

    def test_params_split_between_backends(self):
        # a dense checker's max_qubits reaches the dense side of the
        # comparison; the tdd side runs the default config
        checker = ModelChecker(models.grover_qts(3),
                               CheckerConfig(backend="dense", max_qubits=8))
        assert checker.cross_validate().ok

    def test_dense_checker_keeps_direction_and_bound(self):
        # a dense checker's cross-validation compares its own bounded
        # check on both sides: one step from the qrw start reaches dim 2
        # (the unbounded walk spans all 16 dimensions)
        checker = ModelChecker(models.qrw_qts(4, 0.2),
                               CheckerConfig(backend="dense", bound=1))
        assert checker.check("AG start").reachable_dimension == 2
        report = checker.cross_validate(spec="AG start")
        assert report.ok
        assert report.tdd_dimension == report.dense_dimension == 2
        backward = ModelChecker(
            models.qrw_qts(4, 0.2),
            CheckerConfig(backend="dense", direction="backward", bound=1))
        expected = backward.check("AG start").reachable_dimension
        report = backward.cross_validate(spec="AG start")
        assert report.ok
        assert report.tdd_dimension == report.dense_dimension == expected


class TestCheckerBackendSelection:
    def test_dense_checker_end_to_end(self):
        qts = models.grover_qts(3, initial="invariant")
        checker = ModelChecker(qts, DENSE)
        assert checker.config.backend == "dense"
        assert checker.check_invariant(strict=True)
        assert checker.check(Always(Atomic(qts.initial, "S0"))).holds

    def test_dense_image_dimension(self):
        checker = ModelChecker(models.ghz_qts(3),
                               CheckerConfig(backend="dense"))
        assert checker.image().dimension == 1

    def test_dense_is_drop_in_for_tdd_method_params(self):
        # the quickstart swap: the dense config answers the same
        # question as a tdd config carrying k1/k2
        qts = models.grover_qts(3, initial="invariant")
        for config in (CONTRACTION_K4,
                       CheckerConfig(backend="dense")):
            assert ModelChecker(qts, config).check_invariant(strict=True)

    def test_repr_mentions_backend(self):
        checker = ModelChecker(models.ghz_qts(3),
                               CheckerConfig(backend="dense"))
        assert "dense" in repr(checker)
