"""Pinned Table I ``max_nodes`` per method.

``compute_image`` orthogonalises the image states into a fresh subspace
and observes its projector, as the paper's Table I counts it; these
values must not drift when the subspace internals change.  The noisy
qrw fixpoint pins check that every method runs its own partition on a
multi-Kraus system: the four methods must report different peaks.
"""

import pytest

from repro.image.engine import METHODS, compute_image
from repro.mc.checker import ModelChecker
from repro.mc.config import CheckerConfig
from repro.systems.models import build_model

#: (model, size) -> max_nodes per method, in METHODS order
PINNED = {
    ("bitflip", 3): (36, 36, 36, 36),
    ("grover", 6): (51, 48, 57, 44),
    ("qft", 6): (127, 127, 22, 22),
}

#: direction -> reachability max_nodes on noisy qrw5, in METHODS order
QRW5_FIXPOINT = {
    "forward": (61, 33, 31, 29),
    "backward": (61, 34, 31, 29),
}


@pytest.mark.parametrize("model,size", sorted(PINNED))
def test_image_max_nodes_pinned(model, size):
    observed = tuple(
        compute_image(build_model(model, size),
                      config=CheckerConfig(method=method)).stats.max_nodes
        for method in METHODS)
    assert observed == PINNED[(model, size)]


@pytest.mark.parametrize("direction", sorted(QRW5_FIXPOINT))
def test_noisy_fixpoint_max_nodes_pinned(direction):
    observed = tuple(
        ModelChecker(build_model("qrw", 5, noise_probability=0.1, steps=2),
                     CheckerConfig(method=method, direction=direction)
                     ).reachable().stats.max_nodes
        for method in METHODS)
    assert observed == QRW5_FIXPOINT[direction]
