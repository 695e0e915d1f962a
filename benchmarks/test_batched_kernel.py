"""Batched weight kernel — scalar loop vs one invocation per family.

The headline acceptance metric of the batched kernel: applying a
multi-Kraus family through the stacked vector-weight operator reduces
the number of top-level apply invocations (contractions) by at least
the family width.  Wall clocks for both modes land in the benchmark
JSON, which records where the crossover sits (on smoke-sized families
the numpy per-node constants eat the win).
"""

import pytest

from repro.image.engine import compute_image
from repro.mc.config import CheckerConfig
from repro.systems import models

FAMILIES = {
    "bitflip": lambda: models.bitflip_qts(),
    "qrw4": lambda: models.qrw_qts(4, 0.1, steps=2),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("batched", [False, True],
                         ids=["scalar", "batched"])
def test_family_image(image_bench, family, batched):
    result = image_bench(FAMILIES[family],
                         CheckerConfig(method="basic", batched=batched))
    assert result.dimension > 0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_apply_invocation_reduction_at_least_family_width(family):
    builder = FAMILIES[family]
    width = len(builder().all_kraus_circuits())
    assert width > 1
    scalar = compute_image(builder(),
                           config=CheckerConfig(method="basic", batched=False))
    batched = compute_image(builder(),
                            config=CheckerConfig(method="basic", batched=True))
    assert batched.dimension == scalar.dimension
    assert (scalar.stats.contractions
            >= width * batched.stats.contractions)
