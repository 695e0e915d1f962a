"""Garbage collection invariants of :meth:`TDDManager.collect`.

The contract: live TDD handles pin every node reachable from their
roots (all their evaluations are preserved bit-for-bit), everything
else leaves the unique table, and the operation caches are emptied so
recycled ``id()`` values can never resurrect a stale memo.
"""

import numpy as np

from repro.indices.index import Index
from repro.mc.config import CheckerConfig
from repro.systems import models
from repro.tdd import construction as tc

from tests.helpers import fresh_manager, random_tensor

IDX = list("abcdef")


def _random_tdd(m, rng, names=IDX):
    arr = random_tensor(rng, len(names))
    return tc.from_numpy(m, arr, [Index(n) for n in names]), arr


class TestCollectPreservesLiveRoots:
    def test_live_evaluations_survive(self, rng):
        m = fresh_manager(IDX)
        kept, arr = _random_tdd(m, rng)
        m.collect()
        np.testing.assert_allclose(kept.to_numpy(), arr, atol=1e-12)

    def test_sum_of_live_roots_survives(self, rng):
        m = fresh_manager(IDX)
        x, ax = _random_tdd(m, rng)
        y, ay = _random_tdd(m, rng)
        total = x + y
        m.collect()
        np.testing.assert_allclose(total.to_numpy(), ax + ay, atol=1e-8)

    def test_canonicity_survives_collect(self, rng):
        # recomputing after a collect must re-intern onto the kept nodes
        m = fresh_manager(IDX)
        x, _ = _random_tdd(m, rng)
        y, _ = _random_tdd(m, rng)
        first = x + y
        m.collect()
        second = x + y
        assert first.same_as(second)
        assert first.root.node is second.root.node

    def test_extra_roots_pin_raw_edges(self):
        m = fresh_manager(IDX)
        edge = m.make_node(0, m.scalar_edge(1), m.scalar_edge(2))
        # no TDD handle wraps `edge`; without pinning it would be swept
        m.collect(extra_roots=[edge])
        assert m.live_nodes == 1
        m.collect()
        assert m.live_nodes == 0


class TestCollectReclaims:
    def test_unreachable_nodes_are_freed(self, rng):
        m = fresh_manager(IDX)
        kept, _ = _random_tdd(m, rng)
        kept_size = kept.size()
        garbage, _ = _random_tdd(m, rng)
        assert m.live_nodes > kept_size - 1
        del garbage
        reclaimed = m.collect()
        assert reclaimed > 0
        # size() counts the terminal; the unique table does not
        assert m.live_nodes == kept_size - 1

    def test_everything_freed_without_roots(self, rng):
        m = fresh_manager(IDX)
        tdd, _ = _random_tdd(m, rng)
        del tdd
        m.collect()
        assert m.live_nodes == 0

    def test_counters(self, rng):
        m = fresh_manager(IDX)
        tdd, _ = _random_tdd(m, rng)
        peak = m.peak_live_nodes
        assert peak >= m.live_nodes > 0
        runs_before = m.gc_runs
        del tdd
        m.collect()
        assert m.gc_runs == runs_before + 1
        assert m.nodes_reclaimed >= peak - m.live_nodes - 1
        # peak is a high-water mark: collection must not lower it
        assert m.peak_live_nodes == peak


class TestCacheInvalidation:
    def test_recompute_after_collect_is_correct(self, rng):
        m = fresh_manager(IDX)
        x, ax = _random_tdd(m, rng)
        y, ay = _random_tdd(m, rng)
        result = x + y
        del result
        m.collect()  # drops the sum's nodes; memo entries must go too
        again = x + y
        np.testing.assert_allclose(again.to_numpy(), ax + ay, atol=1e-8)

    def test_dead_entries_are_purged(self, rng):
        m = fresh_manager(IDX)
        x, _ = _random_tdd(m, rng)
        y, _ = _random_tdd(m, rng)
        result = x + y
        populated = len(m.add_cache)
        assert populated > 0
        del result
        m.collect()
        assert len(m.add_cache) < populated

    def test_collect_clears_every_memo_table(self, rng):
        m = fresh_manager(IDX)
        x, _ = _random_tdd(m, rng)
        y, _ = _random_tdd(m, rng)
        summed = [Index(n) for n in IDX[2:]]
        total = x + y
        contracted = x.contract(y, summed)
        inner = x.inner(y)
        assert len(m.add_cache) and len(m.cont_cache) and len(m.inner_cache)
        m.collect()
        assert (len(m.add_cache), len(m.cont_cache),
                len(m.inner_cache)) == (0, 0, 0)
        # recomputed from scratch, every result is the interned one
        assert (x + y).same_as(total)
        assert x.contract(y, summed).same_as(contracted)
        assert x.inner(y) == inner


class TestInnerMemoInvalidation:
    def test_no_entry_names_a_reclaimed_id(self, rng):
        m = fresh_manager(IDX)
        x, _ = _random_tdd(m, rng)
        y, _ = _random_tdd(m, rng)
        garbage, _ = _random_tdd(m, rng)
        before = x.inner(y)
        garbage.inner(x)
        dead = {id(node) for node in m._unique.values()} - {
            id(node) for node in _reachable(x) | _reachable(y)}
        assert any(key[0] in dead for key in m.inner_cache.table)
        del garbage
        assert m.collect() > 0
        # the memo is repopulated after collect from live nodes only
        assert x.inner(y) == before
        live = {id(node) for node in m._unique.values()} | {id(m.terminal)}
        assert m.inner_cache.table
        for key in m.inner_cache.table:
            assert key[0] in live and key[1] in live


def _reachable(tdd):
    """Every node under ``tdd``'s root, the terminal included."""
    seen = {}
    stack = [tdd.root.node]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        if not node.is_terminal:
            stack.extend(child for _, child in (node.low, node.high))
    return set(seen.values())


class TestGCInPipelines:
    def test_reachability_dimensions_unchanged_by_gc(self):
        # the tdd run collects after every source state; the dense
        # oracle never touches the manager, so equal dimensions mean
        # no collection reclaimed a node the fixpoint still needed
        from repro.mc.reachability import reachable_space
        tdd = reachable_space(models.qrw_qts(3, 0.2),
                              CheckerConfig(method="contraction"))
        dense = reachable_space(models.qrw_qts(3, 0.2),
                                CheckerConfig(backend="dense"))
        assert tdd.dimensions == dense.dimensions
        assert tdd.stats.gc_runs > 0

    def test_compute_image_reports_post_gc_live_nodes(self):
        from repro.image.engine import compute_image
        for method, params in (("basic", {}), ("addition", {"k": 1}),
                               ("contraction", {"k1": 2, "k2": 2}),
                               ("hybrid", {"k": 1, "k1": 2, "k2": 2})):
            qts = models.ghz_qts(4)
            result = compute_image(qts,
                                   config=CheckerConfig(method=method,
                                                        method_params=params))
            stats = result.stats
            assert stats.cache_hits + stats.cache_misses > 0
            # one collection after the operator build, one per source
            # state, one after the run
            assert stats.gc_runs == qts.initial.dimension + 2
            assert 0 < stats.live_nodes <= stats.peak_live_nodes
            data = stats.as_dict()
            for field in ("cache_hits", "cache_misses", "cache_hit_rate",
                          "peak_live_nodes", "live_nodes"):
                assert field in data
            # with the operators cached there is no build to collect
            again = compute_image(qts, config=CheckerConfig(
                method=method, method_params=params)).stats
            assert again.gc_runs == qts.initial.dimension + 1
