"""TDD slicing and non-zero path search."""

import numpy as np
import pytest

from repro.errors import TDDError
from repro.indices.index import Index
from repro.tdd import construction as tc
from repro.tdd.slicing import first_nonzero_assignment

from tests.helpers import fresh_manager, random_tensor

NAMES = ["a0", "a1", "a2", "a3"]


@pytest.fixture
def manager():
    return fresh_manager(NAMES)


def idx(*names):
    return [Index(n) for n in names]


class TestSlice:
    def test_slice_top_index(self, manager, rng):
        arr = random_tensor(rng, 3)
        t = tc.from_numpy(manager, arr, idx("a0", "a1", "a2"))
        for bit in (0, 1):
            sliced = t.slice({Index("a0"): bit})
            assert np.allclose(sliced.to_numpy(), arr[bit])
            assert set(sliced.index_names) == {"a1", "a2"}

    def test_slice_middle_index(self, manager, rng):
        arr = random_tensor(rng, 3)
        t = tc.from_numpy(manager, arr, idx("a0", "a1", "a2"))
        sliced = t.slice({Index("a1"): 1})
        assert np.allclose(sliced.to_numpy(), arr[:, 1])

    def test_slice_multiple(self, manager, rng):
        arr = random_tensor(rng, 4)
        t = tc.from_numpy(manager, arr, idx(*NAMES))
        sliced = t.slice({Index("a0"): 1, Index("a2"): 0})
        assert np.allclose(sliced.to_numpy(), arr[1, :, 0])

    def test_slice_all_gives_scalar(self, manager, rng):
        arr = random_tensor(rng, 2)
        t = tc.from_numpy(manager, arr, idx("a0", "a1"))
        sliced = t.slice({Index("a0"): 1, Index("a1"): 0})
        assert sliced.is_scalar
        assert np.isclose(sliced.scalar_value(), arr[1, 0])

    def test_slice_index_tensor_ignores(self, manager, rng):
        # slicing an index the diagram does not branch on: value keeps
        arr = random_tensor(rng, 1)
        t = tc.from_numpy(manager, arr, idx("a0"))
        ones = tc.from_numpy(manager, np.ones(2), idx("a1"))
        combined = t.product(ones)
        sliced = combined.slice({Index("a1"): 1})
        assert np.allclose(sliced.to_numpy(), arr)

    def test_slice_non_free_raises(self, manager, rng):
        t = tc.from_numpy(manager, random_tensor(rng, 1), idx("a0"))
        with pytest.raises(TDDError):
            t.slice({Index("a3"): 0})

    def test_slice_invalid_value_raises(self, manager, rng):
        t = tc.from_numpy(manager, random_tensor(rng, 1), idx("a0"))
        with pytest.raises(ValueError):
            t.slice({Index("a0"): 2})

    def test_sum_of_slices_reconstructs(self, manager, rng):
        arr = random_tensor(rng, 3)
        t = tc.from_numpy(manager, arr, idx("a0", "a1", "a2"))
        total = t.slice({Index("a1"): 0}) + t.slice({Index("a1"): 1})
        assert np.allclose(total.to_numpy(), arr.sum(axis=1))


class TestFirstNonzero:
    def test_zero_tensor_returns_none(self, manager):
        zero = tc.zero(manager, idx("a0", "a1"))
        levels = frozenset([0, 1])
        assert first_nonzero_assignment(zero.root, levels) is None

    def test_basis_state_found(self, manager):
        t = tc.basis_state(manager, idx("a0", "a1", "a2"), [1, 0, 1])
        levels = frozenset(manager.level(i) for i in idx("a0", "a1", "a2"))
        assignment = first_nonzero_assignment(t.root, levels)
        assert assignment == {0: 1, 1: 0, 2: 1}

    def test_prefers_leftmost_zero_branch(self, manager, rng):
        arr = np.zeros((2, 2), dtype=complex)
        arr[0, 1] = 1.0
        arr[1, 0] = 1.0
        t = tc.from_numpy(manager, arr, idx("a0", "a1"))
        assignment = first_nonzero_assignment(
            t.root, frozenset([manager.level(Index("a0"))]))
        # column a0=0 is non-zero (entry (0,1)); leftmost wins
        assert assignment[manager.level(Index("a0"))] == 0

    def test_partial_targets(self, manager, rng):
        arr = np.zeros((2, 2), dtype=complex)
        arr[1, 0] = 2.0  # only a0=1 column non-zero
        t = tc.from_numpy(manager, arr, idx("a0", "a1"))
        level0 = manager.level(Index("a0"))
        assignment = first_nonzero_assignment(t.root, frozenset([level0]))
        assert assignment == {level0: 1}

    def test_unconstrained_levels_omitted(self, manager):
        # tensor constant in a0: assignment may omit it
        ones = tc.from_numpy(manager, np.ones(2), idx("a0"))
        level0 = manager.level(Index("a0"))
        assignment = first_nonzero_assignment(ones.root, frozenset([level0]))
        assert assignment == {}

    def test_slice_at_found_assignment_is_nonzero(self, manager, rng):
        arr = random_tensor(rng, 3)
        arr[0] = 0  # kill the a0=0 block
        t = tc.from_numpy(manager, arr, idx("a0", "a1", "a2"))
        level0 = manager.level(Index("a0"))
        assignment = first_nonzero_assignment(t.root, frozenset([level0]))
        bit = assignment[level0]
        assert bit == 1
        assert not t.slice({Index("a0"): bit}).is_zero
