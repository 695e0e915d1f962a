"""Each Kraus family's operators build in their own collection epoch.

Every path that images through a computer builds the whole family it
is about to image first, and the manager collects the builds' garbage
before the first image, so the live-node peak is the larger of the
build's and the image's rather than their sum.  The spies record the
order of operator builds (``circuit_diagrams``), collections
(``TDDManager.collect``) and images (``circuit_image``).
"""

from __future__ import annotations

import pytest

import repro.image.base as image_base
from repro.image.base import ImageComputerBase
from repro.mc.checker import ModelChecker
from repro.mc.config import CheckerConfig
from repro.mc.reachability import ReachabilityCache, reachable_space
from repro.systems.models import build_model
from repro.tdd.manager import TDDManager


def qrw5(steps=1):
    return build_model("qrw", 5, noise_probability=0.1, steps=steps,
                       start_position=1)


@pytest.fixture
def events(monkeypatch):
    """The ordered ``(kind, circuit)`` events of the code under test."""
    log = []
    build = image_base.circuit_diagrams
    collect = TDDManager.collect
    image = ImageComputerBase.circuit_image

    def spy_build(circuit, *args, **kwargs):
        log.append(("build", circuit))
        return build(circuit, *args, **kwargs)

    def spy_collect(self, *args, **kwargs):
        log.append(("collect", None))
        return collect(self, *args, **kwargs)

    def spy_image(self, state, circuit, stats):
        log.append(("image", circuit))
        return image(self, state, circuit, stats)

    monkeypatch.setattr(image_base, "circuit_diagrams", spy_build)
    monkeypatch.setattr(TDDManager, "collect", spy_collect)
    monkeypatch.setattr(ImageComputerBase, "circuit_image", spy_image)
    return log


def build_runs(log):
    """``(circuits built, kind of the next event)`` per run of builds."""
    runs = []
    for position, (kind, circuit) in enumerate(log):
        if kind != "build":
            continue
        if position == 0 or log[position - 1][0] != "build":
            runs.append([[], None])
        runs[-1][0].append(circuit)
        if position + 1 < len(log):
            runs[-1][1] = log[position + 1][0]
    return runs


def assert_family_epochs(log, *families):
    """Each family builds in one run, in order, and a collection follows
    it before any image."""
    runs = build_runs(log)
    assert [built for built, _ in runs] == [list(f) for f in families]
    assert all(after == "collect" for _, after in runs)
    first_image = next(i for i, (kind, _) in enumerate(log)
                       if kind == "image")
    first_build = next(i for i, (kind, _) in enumerate(log)
                       if kind == "build")
    assert first_build < first_image


@pytest.mark.parametrize("method", ["basic", "addition", "contraction",
                                    "hybrid"])
def test_reachable_space_collects_after_the_build(events, method):
    qts = qrw5()
    trace = reachable_space(qts, CheckerConfig(method=method))
    assert trace.dimension == 32
    assert_family_epochs(events, qts.image_circuits())


def test_cached_family_builds_nothing_and_collects_no_extra(events):
    qts = qrw5()
    config = CheckerConfig(method="contraction")
    reachable_space(qts, config)
    events.clear()
    reachable_space(qts, config)
    assert build_runs(events) == []


def test_certify_collects_after_the_build(events):
    cache = ReachabilityCache()
    config = CheckerConfig(method="contraction")
    ModelChecker(qrw5(steps=2), config).check("AG start", reach_cache=cache)
    qts = qrw5(steps=2)
    events.clear()
    warm = cache.lookup(qts, qts.initial)
    trace = reachable_space(qts, config, warm_start=warm)
    assert trace.stats.extra["cache_certified"] is True
    assert_family_epochs(events, qts.image_circuits())
    # one image per Kraus circuit, and nothing else
    assert [c for kind, c in events if kind == "image"] == \
        qts.image_circuits()


def test_backward_check_witness_collects_after_its_forward_build(events):
    qts = qrw5()
    result = ModelChecker(qts, CheckerConfig(direction="backward")).check(
        "AG start")
    assert not result.holds and result.witness_trace.valid
    # the adjoint family for the fixpoint, then the forward family for
    # the witness, each in its own epoch
    assert_family_epochs(events, qts.adjoint().image_circuits(),
                         qts.image_circuits())


def test_full_space_backward_hit_builds_no_adjoint_diagram(events):
    cache = ReachabilityCache()
    config = CheckerConfig(direction="backward")
    cold = ModelChecker(qrw5(), config).check("AG start", reach_cache=cache)
    assert cold.reachable_dimension == 32
    qts = qrw5()
    events.clear()
    hit = ModelChecker(qts, config).check("AG start", reach_cache=cache)
    assert hit.stats.extra["cache_warm"] is True
    assert hit.dimensions == [32, 32]
    adjoint = set(qts.adjoint().all_kraus_circuits())
    assert not [c for kind, c in events
                if kind == "build" and c in adjoint]
    # the witness still builds the forward family in its own epoch
    assert_family_epochs(events, qts.image_circuits())
