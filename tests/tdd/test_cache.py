"""The memo tables' :class:`OperationCache`: counters and clearing."""

from repro.indices.index import Index
from repro.tdd import construction as tc
from repro.tdd.cache import OperationCache

from tests.helpers import fresh_manager, random_tensor


class TestCounters:
    def test_miss_then_hit(self, rng):
        # a kernel adds its counts once per call: the first sum misses
        # at every frame, the replay hits at the top-level entry
        m = fresh_manager(list("abcd"))
        idx = [Index(n) for n in "abcd"]
        x = tc.from_numpy(m, random_tensor(rng, 4), idx)
        y = tc.from_numpy(m, random_tensor(rng, 4), idx)
        cache = m.add_cache
        _ = x + y
        assert cache.hits == 0
        assert cache.misses == len(cache) > 0
        misses = cache.misses
        _ = x + y
        assert (cache.hits, cache.misses) == (1, misses)
        assert cache.lookups == misses + 1
        assert cache.hit_rate == 1 / (misses + 1)

    def test_idle_hit_rate_is_zero(self):
        assert OperationCache("test").hit_rate == 0.0

    def test_clear_keeps_stats(self):
        cache = OperationCache("test")
        cache.table[("k",)] = 1
        cache.hits = 1
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1
        cache.reset_stats()
        assert cache.hits == cache.misses == 0

    def test_stats_dict(self):
        cache = OperationCache("add")
        cache.misses = 1
        stats = cache.stats()
        assert stats["name"] == "add"
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.0


class TestManagerIntegration:
    def test_manager_cache_counters_roll_up(self, rng):
        m = fresh_manager(list("abcd"))
        idx = [Index(n) for n in "abcd"]
        x = tc.from_numpy(m, random_tensor(rng, 4), idx)
        y = tc.from_numpy(m, random_tensor(rng, 4), idx)
        _ = x + y
        counters = m.cache_counters()
        assert counters["misses"] > 0
        _ = x + y  # replay: the top-level entry hits
        assert m.cache_counters()["hits"] > counters["hits"]

    def test_clear_caches_drops_entries(self, rng):
        m = fresh_manager(list("abcd"))
        idx = [Index(n) for n in "abcd"]
        x = tc.from_numpy(m, random_tensor(rng, 4), idx)
        y = tc.from_numpy(m, random_tensor(rng, 4), idx)
        _ = x + y
        assert len(m.add_cache) > 0
        m.clear_caches()
        assert len(m.add_cache) == 0
        assert len(m.cont_cache) == 0
