"""The scalar inner-product walk ``inner_apply`` against dense references.

``<a|b>`` is computed by walking the node pair of the two diagrams,
conjugating ``a``'s weights as they are read, with no conjugate diagram
and no result edge.  It must agree with ``np.vdot`` on every shape the
diagrams take: random tensors, operands that skip levels (alone or
together), the zero tensor, scalars and bra+ket projector diagrams.
"""

import numpy as np
import pytest

from repro.errors import TDDError
from repro.indices.index import Index
from repro.tdd import construction as tc
from repro.tdd.apply import inner_apply
from repro.tdd.tdd import TDD
from repro.utils.stats import StatsRecorder

from tests.helpers import fresh_manager, make_space, random_tensor

IDX = list("abcde")


def _indices(names=IDX):
    return [Index(n) for n in names]


def _random(m, rng, names=IDX):
    arr = random_tensor(rng, len(names))
    return tc.from_numpy(m, arr, _indices(names)), arr


def _constant_along(arr, axis):
    """``arr`` made independent of ``axis`` (its diagram skips it)."""
    return np.broadcast_to(arr.take([0], axis=axis), arr.shape).copy()


class TestAgainstVdot:
    @pytest.mark.parametrize("rank", [1, 2, 3, 5])
    def test_random_tensors(self, rng, rank):
        names = IDX[:rank]
        for _ in range(5):
            m = fresh_manager(names)
            a, arr_a = _random(m, rng, names)
            b, arr_b = _random(m, rng, names)
            assert a.inner(b) == pytest.approx(np.vdot(arr_a, arr_b),
                                               rel=1e-12, abs=1e-12)

    def test_sparse_tensors(self, rng):
        m = fresh_manager(IDX)
        arr_a = random_tensor(rng, 5) * (rng.random((2,) * 5) < 0.3)
        arr_b = random_tensor(rng, 5) * (rng.random((2,) * 5) < 0.5)
        a = tc.from_numpy(m, arr_a, _indices())
        b = tc.from_numpy(m, arr_b, _indices())
        assert a.inner(b) == pytest.approx(np.vdot(arr_a, arr_b),
                                           rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("skip_a,skip_b", [
        ((1,), ()), ((), (3,)), ((1,), (3,)),
        ((2,), (2,)),                # both skip: a factor 2
        ((0, 4), (0, 4)),            # both skip the first and last level
        ((0, 2, 4), (1, 3)),
    ])
    def test_operands_that_skip_levels(self, rng, skip_a, skip_b):
        m = fresh_manager(IDX)
        arr_a = random_tensor(rng, 5)
        arr_b = random_tensor(rng, 5)
        for axis in skip_a:
            arr_a = _constant_along(arr_a, axis)
        for axis in skip_b:
            arr_b = _constant_along(arr_b, axis)
        a = tc.from_numpy(m, arr_a, _indices())
        b = tc.from_numpy(m, arr_b, _indices())
        assert a.inner(b) == pytest.approx(np.vdot(arr_a, arr_b),
                                           rel=1e-12, abs=1e-12)

    def test_zero_tdd(self, rng):
        m = fresh_manager(IDX)
        a, _ = _random(m, rng)
        zero = tc.zero(m, _indices())
        assert a.inner(zero) == 0
        assert zero.inner(a) == 0
        assert zero.inner(zero) == 0
        assert zero.norm() == 0

    def test_scalars(self):
        m = fresh_manager()
        a = tc.scalar(m, 2 + 1j)
        b = tc.scalar(m, 3 - 1j)
        assert a.inner(b) == pytest.approx((2 - 1j) * (3 - 1j))
        assert a.norm() == pytest.approx(abs(2 + 1j))

    def test_bra_ket_projector_diagrams(self, rng):
        space = make_space(3)
        first = space.zero_subspace()
        second = space.zero_subspace()
        for sub, count in ((first, 2), (second, 3)):
            for _ in range(count):
                sub.add_state(space.from_amplitudes(random_tensor(rng, 3)))
        p, q = first.projector, second.projector
        dense_p, dense_q = p.to_numpy(), q.to_numpy()
        assert p.inner(q) == pytest.approx(np.vdot(dense_p, dense_q),
                                           abs=1e-12)
        # tr(P P) = dim for an orthogonal projector
        assert p.inner(p) == pytest.approx(2, abs=1e-12)
        assert q.norm() == pytest.approx(3 ** 0.5, abs=1e-12)


class TestSymmetry:
    def test_swapping_operands_conjugates(self, rng):
        m = fresh_manager(IDX)
        for _ in range(10):
            a, _ = _random(m, rng)
            b, _ = _random(m, rng)
            assert a.inner(b) == b.inner(a).conjugate()

    def test_norm_is_real(self, rng):
        m = fresh_manager(IDX)
        a, arr = _random(m, rng)
        value = a.inner(a)
        assert value.imag == 0
        assert value.real == pytest.approx(np.vdot(arr, arr).real)


class TestWalk:
    def test_builds_nothing(self, rng):
        m = fresh_manager(IDX)
        a, _ = _random(m, rng)
        b, _ = _random(m, rng)
        made = m.nodes_made
        adds, conts = len(m.add_cache), len(m.cont_cache)
        a.inner(b)
        assert m.nodes_made == made
        assert (len(m.add_cache), len(m.cont_cache)) == (adds, conts)

    def test_memo_persists_across_calls(self, rng):
        m = fresh_manager(IDX)
        a, _ = _random(m, rng)
        b, _ = _random(m, rng)
        first = a.inner(b)
        assert len(m.inner_cache) > 0
        hits = m.inner_cache.hits
        assert a.inner(b) == first
        assert m.inner_cache.hits == hits + 1

    def test_memo_is_shared_across_summed_sets(self, rng):
        # the same diagram pair under a summed set with extra levels
        # both operands skip: each extra level doubles the sum
        m = fresh_manager(IDX + ["z"])
        a, arr_a = _random(m, rng)
        b, arr_b = _random(m, rng)
        levels = tuple(m.level(i) for i in _indices())
        inner = inner_apply(m, a.root, b.root, levels)
        wider = inner_apply(m, a.root, b.root,
                            levels + (m.level(Index("z")),))
        assert inner == pytest.approx(np.vdot(arr_a, arr_b), rel=1e-12)
        assert wider == pytest.approx(2 * inner, rel=1e-12)

    def test_unsummed_level_is_rejected(self, rng):
        m = fresh_manager(IDX)
        a, _ = _random(m, rng)
        levels = tuple(m.level(i) for i in _indices(IDX[:-1]))
        with pytest.raises(TDDError):
            inner_apply(m, a.root, a.root, levels)

    def test_wider_handle_over_a_skipping_diagram(self, rng):
        # a handle may declare indices its diagram never branches on
        m = fresh_manager(IDX)
        arr = random_tensor(rng, 3)
        narrow = tc.from_numpy(m, arr, _indices(IDX[:3]))
        wide = TDD(m, narrow.root, _indices())
        assert wide.inner(wide) == pytest.approx(4 * np.vdot(arr, arr).real)


class TestCounters:
    def test_manager_counters_include_the_inner_memo(self, rng):
        m = fresh_manager(IDX)
        a, _ = _random(m, rng)
        b, _ = _random(m, rng)
        before = m.cache_counters()
        a.inner(b)
        a.inner(b)
        after = m.cache_counters()
        inner_hits = after["inner_hits"] - before["inner_hits"]
        inner_misses = after["inner_misses"] - before["inner_misses"]
        assert inner_hits >= 1 and inner_misses >= 1
        assert after["hits"] - before["hits"] == inner_hits
        assert after["misses"] - before["misses"] == inner_misses

    def test_stats_recorder_reads_and_merges_inner_counters(self, rng):
        m = fresh_manager(IDX)
        a, _ = _random(m, rng)
        baseline = m.cache_counters()
        a.inner(a)
        a.inner(a)
        stats = StatsRecorder()
        stats.record_manager(m, baseline)
        assert stats.inner_hits == m.inner_cache.hits - baseline["inner_hits"]
        assert stats.inner_hits >= 1
        assert stats.inner_misses == (m.inner_cache.misses
                                      - baseline["inner_misses"])
        assert stats.cache_hits == stats.inner_hits
        total = StatsRecorder()
        total.merge(stats)
        total.merge(stats)
        assert (total.inner_hits, total.inner_misses) == (
            2 * stats.inner_hits, 2 * stats.inner_misses)
        data = stats.as_dict()
        assert data["inner_hits"] == stats.inner_hits
        assert data["inner_misses"] == stats.inner_misses

    def test_clear_caches_and_reset_empty_the_memo(self, rng):
        m = fresh_manager(IDX)
        a, _ = _random(m, rng)
        a.inner(a)
        assert len(m.inner_cache) > 0
        m.clear_caches()
        assert len(m.inner_cache) == 0
        a.inner(a)
        m.reset()
        assert len(m.inner_cache) == 0
