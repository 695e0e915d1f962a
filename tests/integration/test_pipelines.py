"""End-to-end pipelines stitching the subsystems together.

These are the "downstream user" flows: validate a symbolic result
with Monte-Carlo simulation, and reach through an extension model.
"""

from repro.image.engine import compute_image
from repro.mc.config import CheckerConfig
from repro.mc.reachability import reachable_space
from repro.mc.simulation import validate_image

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")


class TestValidationPipeline:
    def test_symbolic_image_survives_monte_carlo(self):
        from repro.systems import models
        qts = models.qrw_qts(4, 0.2, steps=2)
        image = compute_image(qts).subspace
        report = validate_image(qts, image, samples=15, seed=3)
        assert report.ok, report.failures

    def test_extension_model_reachability(self):
        from repro.systems import models
        qts = models.w_state_qts(3)
        trace = reachable_space(qts, BASIC)
        assert trace.converged
        assert trace.subspace.contains(qts.initial)
