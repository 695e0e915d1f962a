"""TDD contraction vs numpy einsum."""

import numpy as np
import pytest

from repro.errors import TDDError
from repro.indices.index import Index
from repro.tdd import construction as tc

from tests.helpers import fresh_manager, random_tensor

NAMES = [f"a{i}" for i in range(5)]


@pytest.fixture
def manager():
    return fresh_manager(NAMES)


def idx(*names):
    return [Index(n) for n in names]


class TestMatrixSemantics:
    def test_matrix_product(self, manager, rng):
        a = random_tensor(rng, 2)
        b = random_tensor(rng, 2)
        ta = tc.from_numpy(manager, a, idx("a0", "a1"))
        tb = tc.from_numpy(manager, b, idx("a1", "a2"))
        result = ta.contract(tb, idx("a1"))
        assert np.allclose(result.to_numpy(), a @ b)

    def test_inner_product_full_contraction(self, manager, rng):
        a = random_tensor(rng, 3)
        b = random_tensor(rng, 3)
        ta = tc.from_numpy(manager, a, idx("a0", "a1", "a2"))
        tb = tc.from_numpy(manager, b, idx("a0", "a1", "a2"))
        result = ta.contract(tb, idx("a0", "a1", "a2"))
        assert result.is_scalar
        assert np.isclose(result.scalar_value(), np.sum(a * b))

    def test_outer_product_disjoint(self, manager, rng):
        a = random_tensor(rng, 2)
        b = random_tensor(rng, 1)
        ta = tc.from_numpy(manager, a, idx("a0", "a1"))
        tb = tc.from_numpy(manager, b, idx("a3"))
        result = ta.product(tb)
        assert np.allclose(result.to_numpy(),
                           np.einsum("ab,c->abc", a, b))

    def test_shared_index_not_summed_stays_free(self, manager, rng):
        # elementwise alignment on a shared, non-summed index
        a = random_tensor(rng, 2)
        b = random_tensor(rng, 2)
        ta = tc.from_numpy(manager, a, idx("a0", "a1"))
        tb = tc.from_numpy(manager, b, idx("a1", "a2"))
        result = ta.contract(tb, ())
        assert np.allclose(result.to_numpy(),
                           np.einsum("ab,bc->abc", a, b))

    def test_phantom_sum_index_gives_factor_two(self, manager, rng):
        a = random_tensor(rng, 1)
        b = random_tensor(rng, 1)
        ta = tc.from_numpy(manager, a, idx("a0"))
        tb = tc.from_numpy(manager, b, idx("a0"))
        # a4 is a free index of neither operand -> declared via ones
        ones = tc.ones(manager, idx("a4"))
        result = ta.product(ones).contract(tb, idx("a0", "a4"))
        assert np.isclose(result.scalar_value(), 2 * np.sum(a * b))

    def test_three_way_chain(self, manager, rng):
        a, b, c = (random_tensor(rng, 2) for _ in range(3))
        ta = tc.from_numpy(manager, a, idx("a0", "a1"))
        tb = tc.from_numpy(manager, b, idx("a1", "a2"))
        tcd = tc.from_numpy(manager, c, idx("a2", "a3"))
        result = ta.contract(tb, idx("a1")).contract(tcd, idx("a2"))
        assert np.allclose(result.to_numpy(), a @ b @ c)



class TestSummedSuffixMemo:
    def test_sets_sharing_a_suffix_do_not_alias(self, manager, rng):
        # one node pair contracted over summed sets whose tails agree:
        # the memo is keyed by the id of the levels still ahead, so an
        # entry made under one set is reused by another only where both
        # have the same levels left
        a = random_tensor(rng, 4)
        b = random_tensor(rng, 4)
        ta = tc.from_numpy(manager, a, idx("a0", "a1", "a2", "a3"))
        tb = tc.from_numpy(manager, b, idx("a1", "a2", "a3", "a4"))
        cases = [
            (("a1", "a3"), "pqrs,qrsu->pru"),
            (("a2", "a3"), "pqrs,qrsu->pqu"),
            (("a3",), "pqrs,qrsu->pqru"),
            (("a1", "a2", "a3"), "pqrs,qrsu->pu"),
        ]
        for _ in range(2):  # the second round runs on a warm memo
            for summed, spec in cases:
                result = ta.contract(tb, idx(*summed))
                assert np.allclose(result.to_numpy(),
                                   np.einsum(spec, a, b)), summed
        assert manager.cont_cache.hits > 0

    def test_suffix_ids_are_shared_and_reset(self, manager):
        first = manager.suffix_ids((1, 3))
        second = manager.suffix_ids((2, 3))
        assert first[1] == second[1] != 0
        assert first[0] != second[0]
        assert first[2] == second[2] == 0
        assert manager.suffix_ids((1, 3)) == first
        manager.reset()
        assert manager._suffixes == {}


class TestEdgeCases:
    def test_zero_operand(self, manager, rng):
        a = random_tensor(rng, 2)
        ta = tc.from_numpy(manager, a, idx("a0", "a1"))
        zero = tc.zero(manager, idx("a1", "a2"))
        assert ta.contract(zero, idx("a1")).is_zero

    def test_scalar_times_tensor(self, manager, rng):
        a = random_tensor(rng, 2)
        ta = tc.from_numpy(manager, a, idx("a0", "a1"))
        half = tc.scalar(manager, 0.5)
        assert np.allclose(ta.product(half).to_numpy(), 0.5 * a)

    def test_sum_over_unknown_index_raises(self, manager, rng):
        ta = tc.from_numpy(manager, random_tensor(rng, 1), idx("a0"))
        tb = tc.from_numpy(manager, random_tensor(rng, 1), idx("a1"))
        with pytest.raises(TDDError):
            ta.contract(tb, idx("a4"))

    def test_bilinearity(self, manager, rng):
        a, b, c = (random_tensor(rng, 2) for _ in range(3))
        ta = tc.from_numpy(manager, a, idx("a0", "a1"))
        tb = tc.from_numpy(manager, b, idx("a1", "a2"))
        tcd = tc.from_numpy(manager, c, idx("a1", "a2"))
        left = ta.contract(tb + tcd, idx("a1"))
        right = ta.contract(tb, idx("a1")) + ta.contract(tcd, idx("a1"))
        assert left.allclose(right)

    def test_contraction_commutative(self, manager, rng):
        a = random_tensor(rng, 2)
        b = random_tensor(rng, 2)
        ta = tc.from_numpy(manager, a, idx("a0", "a1"))
        tb = tc.from_numpy(manager, b, idx("a1", "a2"))
        assert ta.contract(tb, idx("a1")).allclose(
            tb.contract(ta, idx("a1")))
