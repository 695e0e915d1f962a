"""Pinned Table I ``max_nodes`` of one image from the default initial space.

``compute_image`` orthogonalises the image states into a fresh subspace
and observes its projector, as the paper's Table I counts it; these
values must not drift when the subspace internals change.
"""

import pytest

from repro.image.engine import METHODS, compute_image
from repro.mc.config import CheckerConfig
from repro.systems.models import build_model

#: (model, size) -> max_nodes per method, in METHODS order
PINNED = {
    ("bitflip", 3): (36, 36, 36, 36),
    ("grover", 6): (51, 48, 57, 44),
    ("qft", 6): (127, 127, 22, 22),
}


@pytest.mark.parametrize("batched", [True, False],
                         ids=["batched", "scalar"])
@pytest.mark.parametrize("model,size", sorted(PINNED))
def test_image_max_nodes_pinned(model, size, batched):
    observed = tuple(
        compute_image(build_model(model, size),
                      config=CheckerConfig(method=method,
                                           batched=batched)).stats.max_nodes
        for method in METHODS)
    assert observed == PINNED[(model, size)]
