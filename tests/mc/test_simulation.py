"""Monte-Carlo validation of symbolic images and reachability."""

import numpy as np
import pytest

from repro.image.engine import compute_image
from repro.mc.config import CheckerConfig
from repro.mc.reachability import reachable_space
from repro.mc.simulation import (sample_state, validate_image,
                                 validate_reachability)
from repro.systems import models

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")


class TestSampling:
    def test_unit_norm(self, rng):
        qts = models.grover_qts(4, "invariant")
        v = sample_state(qts.initial, rng)
        assert np.isclose(np.linalg.norm(v), 1.0)

    def test_inside_subspace(self, rng):
        qts = models.grover_qts(4, "invariant")
        v = sample_state(qts.initial, rng)
        from tests.helpers import subspace_to_dense
        assert subspace_to_dense(qts.initial).contains_vector(v)

    def test_zero_subspace_rejected(self, rng):
        qts = models.ghz_qts(3)
        with pytest.raises(ValueError):
            sample_state(qts.space.zero_subspace(), rng)


class TestValidateImage:
    @pytest.mark.parametrize("builder", [
        lambda: models.grover_qts(4),
        lambda: models.bitflip_qts(),
        lambda: models.qrw_qts(4, 0.3),
    ])
    def test_correct_images_validate(self, builder):
        qts = builder()
        image = compute_image(qts).subspace
        qts2 = builder()
        report = validate_image(qts2, _rebuild(qts2, image), samples=10)
        assert report.ok, report.failures

    def test_wrong_image_detected(self):
        qts = models.grover_qts(4)
        # claim the image is the initial space (it is not)
        report = validate_image(qts, qts.initial, samples=5)
        assert not report.ok
        assert report.failures[0]["operation"] == "G"


class TestValidateReachability:
    def test_correct_reachable_validates(self):
        qts = models.qrw_qts(3, 0.3)
        trace = reachable_space(qts, BASIC)
        qts2 = models.qrw_qts(3, 0.3)
        report = validate_reachability(
            qts2, _rebuild(qts2, trace.subspace), steps=4, samples=5)
        assert report.ok, report.failures

    def test_too_small_reachable_detected(self):
        qts = models.qrw_qts(3, 0.3)
        report = validate_reachability(qts, qts.initial, steps=3,
                                       samples=5)
        assert not report.ok


def _rebuild(qts, subspace):
    """Re-span a subspace inside another (identically laid out) QTS."""
    states = [qts.space.from_amplitudes(v.to_numpy().reshape(-1))
              for v in subspace.basis]
    return qts.space.span(states)
