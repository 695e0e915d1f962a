"""Table II — contraction-partition (k1, k2) sweep on Grover.

Paper: k1, k2 in 1..15 on Grover 15; a broad plateau of ~1.3-2.5 s
cells with degradation only when both parameters are large (e.g.
(13, 14): 72 s).  The takeaway: the method is robust over a wide
parameter range.

Reproduction: the same sweep shape on a Grover instance scaled for
pure Python; the assertion checks the plateau property — small-k cells
must not be dramatically worse than the best cell.
"""

import pytest

from repro.mc.config import CheckerConfig
from repro.systems import models


def grover():
    return models.grover_qts(7, iterations=2)


@pytest.mark.parametrize("k1", [1, 2, 4, 6])
@pytest.mark.parametrize("k2", [1, 2, 4, 6])
def test_sweep_cell(image_bench, k1, k2):
    result = image_bench(grover, CheckerConfig(
        method="contraction", method_params={"k1": k1, "k2": k2}))
    assert result.dimension >= 1


def test_plateau_property():
    """Small-k cells sit on a plateau: no cell with k1,k2 <= 4 may be
    an order of magnitude slower than the best of them."""
    from repro.image.engine import compute_image
    times = {}
    for k1 in (1, 2, 4):
        for k2 in (1, 2, 4):
            config = CheckerConfig(method="contraction",
                                   method_params={"k1": k1, "k2": k2})
            result = compute_image(grover(), config=config)
            times[(k1, k2)] = result.stats.seconds
    best = min(times.values())
    assert max(times.values()) <= max(10 * best, best + 1.0), times
