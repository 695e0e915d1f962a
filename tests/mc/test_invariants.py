"""Invariance / image property checks through :class:`ModelChecker`."""

from repro.mc.checker import ModelChecker
from repro.systems import models


class TestInvariance:
    def test_grover_invariant_strict(self):
        qts = models.grover_qts(4, initial="invariant")
        assert ModelChecker(qts).check_invariant(strict=True)

    def test_grover_plus_not_invariant(self):
        # |++-> maps to the marked state, which is NOT in span{|++->}
        qts = models.grover_qts(4)
        assert not ModelChecker(qts).check_invariant()

    def test_bitflip_image_shrinks(self):
        checker = ModelChecker(models.bitflip_qts())
        assert checker.image().dimension == 1
        assert not checker.check_invariant()  # |000000> not in the error span


class TestImageEquals:
    def test_bitflip_corrects_to_zero(self):
        qts = models.bitflip_qts()
        expected = qts.space.span([qts.space.basis_state([0] * 6)])
        assert ModelChecker(qts).check_image_equals(expected)

    def test_ghz_image(self):
        qts = models.ghz_qts(3)
        ghz = qts.space.from_amplitudes(
            [2 ** -0.5, 0, 0, 0, 0, 0, 0, 2 ** -0.5])
        expected = qts.space.span([ghz])
        assert ModelChecker(qts).check_image_equals(expected)


class TestContainment:
    def test_noisy_walk_containment(self):
        """Section III.A.3: T(span{|0>|i>}) is contained in
        span{|0>|i-1>, |1>|i+1>}.  The paper states this as equality,
        but the coin flip acts after the Hadamard, on |+>, which it
        leaves unchanged: every branch maps |0>|i> to the same
        superposition, so the image is the 1-dimensional ray of it."""
        qts = models.qrw_qts(4, 0.25, start_position=3)
        space = qts.space
        bound = space.span([
            space.basis_state([0, 0, 1, 0]),  # |0>|2>
            space.basis_state([1, 1, 0, 0]),  # |1>|4>
        ])
        image = ModelChecker(qts).image().subspace
        assert bound.contains(image)
        assert image.dimension == 1

    def test_full_space_always_contains(self):
        qts = models.ghz_qts(3)
        full = qts.space.span([qts.space.basis_state(
            [int(b) for b in format(i, "03b")]) for i in range(8)])
        assert full.contains(ModelChecker(qts).image().subspace)
