"""The fixpoint driver layer: schedules, task API, warm-start cache."""

import pytest

from repro.errors import ConfigError, ReproError
from repro.image.engine import ImageEngine
from repro.mc.backends import DenseStatevectorBackend, make_backend
from repro.mc.checker import ModelChecker
from repro.mc.config import BACKENDS, CheckerConfig
from repro.mc.drivers import (DEFAULT_DRIVER, DRIVERS, FrontierDriver,
                              OpShardedDriver, SequentialDriver,
                              make_driver, tree_join)
from repro.mc.reachability import (ReachabilityCache, reachable_space,
                                   subspace_fingerprint,
                                   system_fingerprint)
from repro.systems import models

from tests.helpers import subspace_to_dense

#: the basic image method (no partitioning) under the sequential
#: schedule, the baseline the other drivers are compared against
BASIC = CheckerConfig(method="basic", driver="sequential")
#: the contraction method with small partition blocks, sequential
CONTRACTION_K2 = CheckerConfig(method="contraction", driver="sequential",
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
    def test_one_task_per_operation(self):
        qts = models.bitflip_qts()
        with ImageEngine(qts, BASIC) as engine:
            tasks = list(engine.image_tasks(qts.initial))
        assert [t.symbol for t in tasks] == qts.symbols
        assert all(len(t.circuits) == op.num_kraus
                   for t, op in zip(tasks, qts.operations))

    def test_task_join_equals_monolithic_image(self):
        qts = models.qrw_qts(3, 0.2)
        with ImageEngine(qts, BASIC) as engine:
            whole = engine.computer.image(qts.initial).subspace
            partials = [task.run().subspace
                        for task in engine.image_tasks(qts.initial)]
        assert equal_spaces(tree_join(partials), whole)

    def test_backward_tasks_use_adjoint_operations(self):
        qts = models.ghz_qts(3)
        with ImageEngine(qts, BASIC.replace(direction="backward")) as engine:
            tasks = list(engine.image_tasks(qts.initial))
        assert [t.symbol for t in tasks] == qts.adjoint().symbols

    def test_partial_image_with_all_circuits_is_image(self):
        qts = models.grover_qts(3)
        with ImageEngine(qts, BASIC) as engine:
            full = engine.computer.image(qts.initial).subspace
            partial = engine.computer.partial_image(
                qts.initial, qts.all_kraus_circuits()).subspace
        assert equal_spaces(full, partial)


class TestTreeJoin:
    def test_single_item(self):
        qts = models.ghz_qts(2)
        assert tree_join([qts.initial]) is qts.initial

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            tree_join([])

    def test_matches_sequential_fold(self):
        qts = models.qrw_qts(3, 0.2)
        spans = [qts.space.span([v]) for v in
                 reachable_space(qts, BASIC).subspace.basis]
        folded = spans[0]
        for span in spans[1:]:
            folded = folded.join(span)
        assert equal_spaces(tree_join(spans), folded)


class TestDriverRegistry:
    def test_names(self):
        assert DRIVERS == ("sequential", "opsharded", "frontier")
        assert DEFAULT_DRIVER == "frontier"

    @pytest.mark.parametrize("name,cls", [
        ("sequential", SequentialDriver),
        ("opsharded", OpShardedDriver),
        ("frontier", FrontierDriver),
    ])
    def test_make_driver(self, name, cls):
        driver = make_driver(name)
        assert isinstance(driver, cls)
        assert driver.name == name

    def test_unknown_driver_rejected(self):
        with pytest.raises(ReproError, match="unknown driver"):
            make_driver("nonsense")

    def test_config_validates_driver(self):
        with pytest.raises(ConfigError, match="unknown driver"):
            CheckerConfig(driver="nonsense")

    def test_config_driver_round_trip(self):
        config = CheckerConfig(driver="opsharded")
        assert CheckerConfig.from_json(config.to_json()) == config
        assert "driver=opsharded" in config.describe()
        assert "driver" not in CheckerConfig().describe()

    def test_dense_config_accepts_driver(self):
        config = CheckerConfig(backend="dense", driver="frontier")
        assert config.driver == "frontier"


class TestDriverEquality:
    @pytest.mark.parametrize("family,builder", FAMILIES)
    def test_opsharded_matches_sequential(self, family, builder):
        qts = builder()
        seq = reachable_space(qts, BASIC)
        shard = reachable_space(qts, BASIC.replace(driver="opsharded"))
        assert shard.dimensions == seq.dimensions
        assert equal_spaces(shard.subspace, seq.subspace)
        assert subspace_to_dense(shard.subspace).equals(
            subspace_to_dense(seq.subspace))

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_drivers_agree_backward(self, driver):
        qts = models.qrw_qts(3, 0.2)

        def run(name):
            return reachable_space(
                qts, BASIC.replace(direction="backward", driver=name),
                initial=qts.named_subspace("start"))
        base = run("sequential")
        trace = run(driver)
        assert trace.dimensions == base.dimensions
        assert equal_spaces(trace.subspace, base.subspace)

    def test_opsharded_with_sliced_strategy_shares_executor(self):
        qts = models.qrw_qts(3, 0.2)
        seq = reachable_space(qts, BASIC)
        shard = reachable_space(qts, BASIC.replace(driver="opsharded",
                                                   strategy="sliced"))
        assert equal_spaces(shard.subspace, seq.subspace)
        assert shard.stats.slices > 0          # the one shared executor
        assert shard.stats.extra["shards"] > 0

    def test_opsharded_records_driver_extra(self):
        trace = reachable_space(models.ghz_qts(3),
                                BASIC.replace(driver="opsharded"))
        assert trace.stats.extra["driver"] == "opsharded"

    @pytest.mark.parametrize("driver,direction,bound", [
        # ids name only what differs from the forward, unbounded default
        pytest.param(driver, direction, bound, id="-".join(
            [driver] + ([direction] if direction != "forward" else [])
            + ([f"bound{bound}"] if bound else [])))
        for direction in ("forward", "backward")
        for bound in (0, 2)
        for driver in DRIVERS])
    def test_dense_backend_honours_driver(self, driver, direction, bound):
        # one fixpoint loop serves both backends: every schedule, in
        # either direction, bounded or not, climbs the same dimension
        # ladder to the same space
        settings = {"direction": direction, "bound": bound,
                    "driver": driver}
        symbolic = reachable_space(models.qrw_qts(3, 0.2),
                                   BASIC.replace(**settings))
        dense = reachable_space(models.qrw_qts(3, 0.2),
                                CheckerConfig(backend="dense", **settings))
        assert dense.dimensions == symbolic.dimensions
        assert (dense.direction, dense.bound) == (direction, bound)
        assert subspace_to_dense(dense.subspace).equals(
            subspace_to_dense(symbolic.subspace))

    @pytest.mark.parametrize("settings", [
        {"direction": "backward", "bound": 1},
        {"direction": "backward"},
        {"bound": 2, "driver": "frontier"},
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
        for driver in DRIVERS:
            config = CheckerConfig(method="basic", driver=driver)
            result = ModelChecker(models.grover_qts(3), config).check(
                "AG inv")
            assert result.holds
            assert result.reachable_dimension == 2

    def test_make_backend_dense_picks_up_driver(self):
        backend = make_backend(CheckerConfig(backend="dense",
                                             driver="opsharded"))
        assert backend.config.driver == "opsharded"

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_witness_traces_work_under_every_driver(self, driver):
        config = CheckerConfig(method="basic", driver=driver)
        result = ModelChecker(models.grover_qts(3), config).check(
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
