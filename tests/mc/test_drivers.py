"""The fixpoint driver layer: the frontier schedule, warm-start cache."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.image.engine import ImageEngine
from repro.mc.backends import DenseStatevectorBackend, make_backend
from repro.mc.checker import ModelChecker
from repro.mc.config import BACKENDS, CheckerConfig
from repro.mc.drivers import FrontierDriver
from repro.mc.reachability import (ReachabilityCache, ReachabilityTrace,
                                   reachable_space, subspace_fingerprint,
                                   system_fingerprint)
from repro.systems import models

from tests.helpers import dense_reach_oracle, subspace_to_dense

#: the basic image method (no partitioning)
BASIC = CheckerConfig(method="basic")
#: the contraction method with small partition blocks
CONTRACTION_K2 = CheckerConfig(method="contraction",
                               method_params={"k1": 2, "k2": 2})

#: the tier-2 model families at driver-test sizes
FAMILIES = [
    ("ghz", lambda: models.ghz_qts(3)),
    ("bv", lambda: models.bv_qts(3)),
    ("grover", lambda: models.grover_qts(3)),
    ("qft", lambda: models.qft_qts(3)),
    ("qrw", lambda: models.qrw_qts(3, 0.2)),
]


def equal_spaces(a, b):
    """Same dimension and mutual containment."""
    return (a.dimension == b.dimension
            and a.contains(b) and b.contains(a))


class TestImageTasks:
    def test_partial_image_with_all_circuits_is_image(self):
        qts = models.grover_qts(3)
        engine = ImageEngine(qts, BASIC)
        full = engine.computer.image(qts.initial).subspace
        partial = engine.computer.partial_image(
            qts.initial, qts.all_kraus_circuits()).subspace
        assert equal_spaces(full, partial)


class TestFrontierDriver:
    def test_each_round_images_the_previous_rounds_directions(self):
        # the first round images the seed, every later one exactly the
        # directions the round before it added, so each reachable
        # direction is imaged once
        qts = models.qrw_qts(3, 0.2)
        sources = []

        class Recording(FrontierDriver):
            def advance(self, engine, current, frontier, stats):
                sources.append(frontier.dimension)
                return super().advance(engine, current, frontier, stats)

        trace = reachable_space(qts, BASIC)
        engine = ImageEngine(qts, BASIC)
        replay = ReachabilityTrace(subspace=qts.initial,
                                   dimensions=[qts.initial.dimension])
        Recording().run(engine, replay, limit=2 ** qts.num_qubits)
        assert replay.dimensions == trace.dimensions
        assert sources[0] == qts.initial.dimension
        assert sources[1:] == trace.dimensions_delta[:-1]
        assert sum(sources) == trace.dimension


class TestDriverEquality:
    @pytest.mark.parametrize("family,builder", FAMILIES)
    def test_matches_oracle(self, family, builder):
        trace = reachable_space(builder(), BASIC)
        expected, ladder = dense_reach_oracle(builder())
        assert trace.converged
        assert trace.dimensions == ladder
        assert subspace_to_dense(trace.subspace).equals(expected)

    @pytest.mark.parametrize("direction,bound", [
        pytest.param(direction, bound,
                     id=direction + (f"-bound{bound}" if bound else ""))
        for direction in ("forward", "backward")
        for bound in (0, 2)])
    def test_dense_backend_matches_symbolic(self, direction, bound):
        # one fixpoint loop serves both backends: in either direction,
        # bounded or not, both climb the oracle's dimension ladder to
        # the oracle's space
        settings = {"direction": direction, "bound": bound}
        symbolic = reachable_space(models.qrw_qts(3, 0.2),
                                   BASIC.replace(**settings))
        dense = reachable_space(models.qrw_qts(3, 0.2),
                                CheckerConfig(backend="dense", **settings))
        expected, ladder = dense_reach_oracle(models.qrw_qts(3, 0.2),
                                              direction, bound)
        assert dense.dimensions == symbolic.dimensions == ladder
        assert (dense.direction, dense.bound) == (direction, bound)
        assert subspace_to_dense(dense.subspace).equals(expected)
        assert subspace_to_dense(symbolic.subspace).equals(expected)

    def test_backward_from_named_start_matches_oracle(self):
        # a backward run seeded with a named subspace, not S0, climbs
        # the oracle's ladder from that seed on both backends
        qts = models.qrw_qts(3, 0.2)
        start = qts.named_subspace("start")
        expected, ladder = dense_reach_oracle(qts, "backward",
                                              initial=start)
        for backend in BACKENDS:
            trace = reachable_space(
                qts, CheckerConfig(backend=backend, direction="backward"),
                initial=start)
            assert trace.converged
            assert trace.dimensions == ladder
            assert subspace_to_dense(trace.subspace).equals(expected)

    @pytest.mark.parametrize("settings", [
        {"direction": "backward", "bound": 1},
        {"direction": "backward"},
        {"bound": 2},
    ])
    def test_backends_honour_config_direction_and_bound(self, settings):
        # regression: the dense backend used to ignore the config's
        # direction and bound, running forward and unbounded
        traces, images = {}, {}
        for backend in BACKENDS:
            config = CheckerConfig(backend=backend, **settings)
            traces[backend] = make_backend(config).reachable(
                models.qrw_qts(3, 0.2))
            images[backend] = make_backend(config).compute_image(
                models.qrw_qts(3, 0.2))
        tdd, dense = traces["tdd"], traces["dense"]
        assert (dense.direction, dense.bound) == (tdd.direction, tdd.bound)
        assert dense.dimensions == tdd.dimensions
        assert subspace_to_dense(images["dense"].subspace).equals(
            subspace_to_dense(images["tdd"].subspace))

    def test_checker_config_driver_same_verdict(self):
        # a stored config naming any of the old fixpoint schedules
        # loads as today's config and reaches the same verdict
        for driver in ("sequential", "opsharded", "frontier"):
            config = CheckerConfig.from_dict({"method": "basic",
                                              "driver": driver})
            assert config == CheckerConfig(method="basic")
            result = ModelChecker(models.grover_qts(3), config).check(
                "AG inv")
            assert result.holds
            assert result.reachable_dimension == 2

    def test_witness_trace_replays(self):
        result = ModelChecker(models.grover_qts(3), BASIC).check(
            "AG plus")
        assert not result.holds
        assert result.witness_trace is not None
        assert result.witness_trace.valid
        assert result.witness_trace.length >= 1


class TestDirectionValidationSinglePoint:
    def test_engine_rejects_unknown_direction(self):
        with pytest.raises(ReproError, match="unknown direction"):
            ImageEngine(models.ghz_qts(2), BASIC.replace(direction="sideways"))

    def test_reachable_space_propagates_engine_error(self):
        with pytest.raises(ReproError, match="unknown direction"):
            reachable_space(models.ghz_qts(2),
                            BASIC.replace(direction="sideways"))

    def test_dense_backend_same_message(self):
        with pytest.raises(ReproError, match="unknown direction"):
            DenseStatevectorBackend().reachable(models.ghz_qts(2),
                                                direction="sideways")


class TestReachabilityTraceRepr:
    def test_repr_fields(self):
        trace = reachable_space(models.qrw_qts(3, 0.2), BASIC)
        text = repr(trace)
        assert f"dim={trace.dimension}" in text
        assert f"iterations={trace.iterations}" in text
        assert "converged=True" in text
        assert "direction='forward'" in text

    def test_dimensions_delta(self):
        trace = reachable_space(models.qrw_qts(3, 0.2), BASIC)
        assert len(trace.dimensions_delta) == trace.iterations
        assert all(delta >= 0 for delta in trace.dimensions_delta)
        assert trace.dimensions[0] + sum(trace.dimensions_delta) == \
            trace.dimension


class TestReachabilityCache:
    def test_system_fingerprint_stable_across_rebuilds(self):
        assert system_fingerprint(models.grover_qts(3)) == \
            system_fingerprint(models.grover_qts(3))
        assert system_fingerprint(models.grover_qts(3)) != \
            system_fingerprint(models.grover_qts(4))

    def test_subspace_fingerprint_tracks_content(self):
        qts = models.ghz_qts(3)
        other = models.ghz_qts(3)
        assert subspace_fingerprint(qts.initial) == \
            subspace_fingerprint(other.initial)
        other.set_initial_basis_states([[1, 1, 1]])
        assert subspace_fingerprint(qts.initial) != \
            subspace_fingerprint(other.initial)

    @pytest.mark.parametrize("name", ["qrw5", "grover8"])
    def test_seed_fingerprint_independent_of_manager_history(self, name):
        # interned weights snap to whatever the manager met first, so a
        # seed rebuilt on a manager that already ran fixpoints must
        # still hash like one built on a fresh manager
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
        build, reseed = {
            "qrw5": (lambda: models.qrw_qts(5),
                     lambda qts: qts.set_initial_basis_states([[0] * 5])),
            "grover8": (lambda: models.grover_qts(8),
                        lambda qts: qts.set_initial_states(
                            [qts.space.product_state([plus] * 7
                                                     + [minus])])),
        }[name]
        fresh = subspace_fingerprint(build().initial)
        used = build()
        for direction in ("forward", "backward"):
            reachable_space(used, BASIC.replace(direction=direction))
        assert subspace_fingerprint(used.initial) == fresh
        reseed(used)
        assert subspace_fingerprint(used.initial) == fresh

    def test_store_and_lookup_across_managers(self):
        cache = ReachabilityCache()
        first = models.qrw_qts(3, 0.2)
        trace = reachable_space(first, BASIC)
        cache.store(first, first.initial, "forward", 0, trace)
        rebuilt = models.qrw_qts(3, 0.2)
        warm = cache.lookup(rebuilt, rebuilt.initial)
        assert warm is not None
        assert warm.space is rebuilt.space
        assert subspace_to_dense(warm).equals(
            subspace_to_dense(trace.subspace))

    def test_lookup_misses_on_different_key(self):
        cache = ReachabilityCache()
        qts = models.qrw_qts(3, 0.2)
        trace = reachable_space(qts, BASIC)
        cache.store(qts, qts.initial, "forward", 0, trace)
        assert cache.lookup(qts, qts.initial, direction="backward") is None
        assert cache.lookup(qts, qts.initial, bound=2) is None
        assert cache.lookup(models.ghz_qts(3),
                            models.ghz_qts(3).initial) is None

    def test_bounded_and_unconverged_runs_not_stored(self):
        cache = ReachabilityCache()
        qts = models.qrw_qts(3, 0.2)
        bounded = reachable_space(qts, BASIC.replace(bound=1))
        cache.store(qts, qts.initial, "forward", 1, bounded)
        truncated = reachable_space(qts, BASIC, max_iterations=1)
        cache.store(qts, qts.initial, "forward", 0, truncated)
        assert len(cache) == 0

    def test_warm_start_collapses_iterations(self):
        cold = reachable_space(models.qrw_qts(3, 0.2), BASIC)
        assert cold.iterations > 1
        qts = models.qrw_qts(3, 0.2)
        cache = ReachabilityCache()
        cache.store(qts, qts.initial, "forward", 0, cold)
        warm_space = cache.lookup(qts, qts.initial)
        warm = reachable_space(qts, CONTRACTION_K2, warm_start=warm_space)
        assert warm.iterations == 1
        assert warm.converged
        assert warm.dimension == cold.dimension
        assert subspace_to_dense(warm.subspace).equals(
            subspace_to_dense(cold.subspace))

    def test_check_with_cache_marks_warm_rows(self):
        cache = ReachabilityCache()
        cold = ModelChecker(models.grover_qts(3),
                            CheckerConfig(method="basic")).check(
            "AG inv", reach_cache=cache)
        warm = ModelChecker(models.grover_qts(3),
                            CONTRACTION_K2).check(
            "AG inv", reach_cache=cache)
        assert cold.stats.extra["cache_warm"] is False
        assert warm.stats.extra["cache_warm"] is True
        assert warm.holds == cold.holds
        assert warm.reachable_dimension == cold.reachable_dimension

    def test_backward_check_warm_start(self):
        cache = ReachabilityCache()
        config = CheckerConfig(method="basic", direction="backward")
        cold = ModelChecker(models.grover_qts(3), config).check(
            "AG plus", reach_cache=cache)
        warm = ModelChecker(
            models.grover_qts(3),
            CheckerConfig(method="contraction",
                          method_params={"k1": 2, "k2": 2},
                          direction="backward")).check(
            "AG plus", reach_cache=cache)
        assert cold.stats.extra["cache_warm"] is False
        assert warm.stats.extra["cache_warm"] is True
        assert warm.verdict == cold.verdict

    def test_bounded_specs_bypass_the_cache(self):
        cache = ReachabilityCache()
        config = CheckerConfig(method="basic")
        ModelChecker(models.qrw_qts(3, 0.2), config).check(
            "EF[<=2] start", reach_cache=cache)
        assert len(cache) == 0

    def test_bounded_trace_cannot_launder_into_unbounded_key(self):
        # regression: store() used to trust the caller's ``bound``
        # argument alone, so a depth-limited trace handed over with
        # bound=0 landed under the unbounded key — and later seeded
        # unbounded fixpoints with a non-closed subspace.  The guard
        # must judge the *trace* (trace.bound), not the caller.
        cache = ReachabilityCache()
        qts = models.qrw_qts(3, 0.2)
        bounded = reachable_space(qts, BASIC.replace(bound=1))
        assert bounded.bound == 1
        cache.store(qts, qts.initial, "forward", 0, bounded)
        assert len(cache) == 0
        assert cache.lookup(qts, qts.initial) is None

    def test_bounded_query_never_consumes_unbounded_entry(self):
        # the bound is part of the key: a depth-limited query must not
        # be served the saturated reachable space (it would overshoot)
        cache = ReachabilityCache()
        qts = models.qrw_qts(3, 0.2)
        trace = reachable_space(qts, BASIC)
        cache.store(qts, qts.initial, "forward", 0, trace)
        assert len(cache) == 1
        assert cache.lookup(qts, qts.initial, bound=1) is None
        assert cache.lookup(qts, qts.initial, bound=0) is not None

    def test_bounded_check_neither_pollutes_nor_consumes(self):
        # end-to-end over check(): an AG[<=k] run against a cache that
        # already holds the unbounded entry must not touch it at all
        cache = ReachabilityCache()
        config = CheckerConfig(method="basic")
        ModelChecker(models.qrw_qts(3, 0.2), config).check(
            "AG start", reach_cache=cache)
        assert len(cache) == 1
        hits_before = cache.hits
        bounded = ModelChecker(models.qrw_qts(3, 0.2), config).check(
            "AG[<=1] start", reach_cache=cache)
        assert "cache_warm" not in bounded.stats.extra
        assert len(cache) == 1
        assert cache.hits == hits_before

    def test_warm_rows_attribute_their_source(self):
        assert ReachabilityCache.source == "memory"
        cache = ReachabilityCache()
        config = CheckerConfig(method="basic")
        cold = ModelChecker(models.grover_qts(3), config).check(
            "AG inv", reach_cache=cache)
        warm = ModelChecker(models.grover_qts(3), config).check(
            "AG inv", reach_cache=cache)
        assert "cache_source" not in cold.stats.extra
        assert warm.stats.extra["cache_source"] == "memory"
