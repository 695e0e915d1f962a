"""Structured TDD constructors."""

import numpy as np
import pytest

from repro.errors import TDDError
from repro.indices.index import Index
from repro.tdd import construction as tc

from tests.helpers import fresh_manager, random_tensor

NAMES = ["a0", "a1", "a2", "a3"]


@pytest.fixture
def manager():
    return fresh_manager(NAMES)


def idx(*names):
    return [Index(n) for n in names]


class TestFromNumpy:
    def test_round_trip(self, manager, rng):
        arr = random_tensor(rng, 4)
        t = tc.from_numpy(manager, arr, idx(*NAMES))
        assert np.allclose(t.to_numpy(), arr)

    def test_axis_order_respected(self, manager, rng):
        arr = random_tensor(rng, 2)
        # feed axes in reversed label order: axis0=a1, axis1=a0
        t = tc.from_numpy(manager, arr, idx("a1", "a0"))
        # to_numpy returns axes in level order (a0 first)
        assert np.allclose(t.to_numpy(), arr.T)

    def test_canonicity_same_array_same_node(self, manager, rng):
        arr = random_tensor(rng, 3)
        t1 = tc.from_numpy(manager, arr, idx("a0", "a1", "a2"))
        t2 = tc.from_numpy(manager, arr.copy(), idx("a0", "a1", "a2"))
        assert t1.root.node is t2.root.node

    def test_shape_mismatch_raises(self, manager):
        with pytest.raises(TDDError):
            tc.from_numpy(manager, np.zeros((2, 3)), idx("a0", "a1"))

    def test_duplicate_labels_raise(self, manager):
        with pytest.raises(TDDError):
            tc.from_numpy(manager, np.zeros((2, 2)), idx("a0", "a0"))

    def test_zero_array(self, manager):
        t = tc.from_numpy(manager, np.zeros((2, 2)), idx("a0", "a1"))
        assert t.is_zero

    def test_scalar_rank0(self, manager):
        t = tc.from_numpy(manager, np.array(2.5), [])
        assert t.is_scalar and t.scalar_value() == 2.5


class TestDelta:
    def test_two_index_delta_is_identity(self, manager):
        d = tc.delta(manager, idx("a0", "a1"))
        assert np.allclose(d.to_numpy(), np.eye(2))

    def test_three_index_delta(self, manager):
        d = tc.delta(manager, idx("a0", "a1", "a2"))
        expect = np.zeros((2, 2, 2))
        expect[0, 0, 0] = expect[1, 1, 1] = 1
        assert np.allclose(d.to_numpy(), expect)

    def test_one_index_delta_is_ones(self, manager):
        d = tc.delta(manager, idx("a0"))
        assert np.allclose(d.to_numpy(), np.ones(2))

    def test_empty_delta_is_scalar_one(self, manager):
        d = tc.delta(manager, [])
        assert d.is_scalar and d.scalar_value() == 1


class TestIndicator:
    def test_pattern(self, manager):
        t = tc.basis_state(manager, idx("a0", "a1", "a2"), [1, 0, 1])
        arr = t.to_numpy()
        assert arr[1, 0, 1] == 1 and arr.sum() == 1

    def test_pattern_length_mismatch_raises(self, manager):
        with pytest.raises(TDDError):
            tc.basis_state(manager, idx("a0"), [1, 0])


class TestStates:
    def test_basis_state(self, manager):
        t = tc.basis_state(manager, idx("a0", "a1", "a2"), [0, 1, 1])
        arr = t.to_numpy()
        assert arr[0, 1, 1] == 1 and np.abs(arr).sum() == 1

    def test_identity_matrix(self, manager):
        t = tc.identity(manager, idx("a0", "a2"), idx("a1", "a3"))
        arr = t.to_numpy()  # axes in level order a0,a1,a2,a3
        mat = arr.transpose(0, 2, 1, 3).reshape(4, 4)
        assert np.allclose(mat, np.eye(4))

    def test_identity_shape_mismatch(self, manager):
        with pytest.raises(TDDError):
            tc.identity(manager, idx("a0"), idx("a1", "a2"))
