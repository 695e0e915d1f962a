"""The TDD wrapper: values, size, norms, renaming, comparisons."""

import numpy as np
import pytest

from repro.errors import TDDError
from repro.indices.index import Index
from repro.tdd import construction as tc

from tests.helpers import fresh_manager, random_tensor

NAMES = ["a0", "a1", "a2", "b0", "b1", "b2"]


@pytest.fixture
def manager():
    return fresh_manager(NAMES)


def idx(*names):
    return [Index(n) for n in names]


class TestValue:
    def test_value_matches_numpy(self, manager, rng):
        arr = random_tensor(rng, 3)
        t = tc.from_numpy(manager, arr, idx("a0", "a1", "a2"))
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    got = t.value({"a0": a, "a1": b, "a2": c})
                    assert np.isclose(got, arr[a, b, c])

    def test_value_accepts_string_keys(self, manager):
        t = tc.basis_state(manager, idx("a0"), [1])
        assert t.value({"a0": 1}) == 1
        assert t.value({"a0": 0}) == 0

    def test_missing_index_raises(self, manager, rng):
        t = tc.from_numpy(manager, random_tensor(rng, 2), idx("a0", "a1"))
        with pytest.raises(TDDError):
            t.value({"a0": 0})

    def test_paper_fig1_value(self):
        # the Fig. 1 projector entry phi(110111) = -1/2 after weights;
        # reconstructed here through the dense path
        from tests.helpers import make_space
        space = make_space(3)
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        s1 = space.product_state([plus, plus, minus])
        s2 = space.product_state([np.array([0., 1.]), np.array([0., 1.]),
                                  minus])
        sub = space.span([s1, s2])
        # P(x=110, y=111) = -3/6 = -1/2 entry of the paper's matrix P
        value = sub.projector.value({
            "x0_0": 1, "x1_0": 1, "x2_0": 0,
            "y0_0": 1, "y1_0": 1, "y2_0": 1})
        assert np.isclose(value, -0.5)


class TestSizeAndShape:
    def test_scalar_size_is_one(self, manager):
        assert tc.scalar(manager, 2.0).size() == 1

    def test_zero_size_is_one(self, manager):
        assert tc.zero(manager, idx("a0")).size() == 1

    def test_basis_state_size_linear(self, manager):
        t = tc.basis_state(manager, idx("a0", "a1", "a2"), [1, 1, 0])
        assert t.size() == 4  # three nodes + terminal

    def test_zero_edges_point_at_the_counted_terminal(self, manager):
        # the identity wire: two a1 nodes, each with one zero edge
        t = tc.from_numpy(manager, np.eye(2), idx("a0", "a1"))
        assert t.size() == 4

    def test_shared_node_counted_once(self, manager):
        # an outer product: both a0 edges reach the same a1 node
        arr = np.outer([1.0, 3.0], [1.0, 2.0])
        t = tc.from_numpy(manager, arr, idx("a0", "a1"))
        assert t.root.node.low[1] is t.root.node.high[1]
        assert t.size() == 3

    def test_rank_and_indices_sorted(self, manager, rng):
        t = tc.from_numpy(manager, random_tensor(rng, 2), idx("a1", "a0"))
        assert t.rank == 2
        assert t.index_names == ("a0", "a1")


class TestNormInner:
    def test_norm_matches_numpy(self, manager, rng):
        arr = random_tensor(rng, 3)
        t = tc.from_numpy(manager, arr, idx("a0", "a1", "a2"))
        assert np.isclose(t.norm(), np.linalg.norm(arr))

    def test_inner_matches_numpy(self, manager, rng):
        a = random_tensor(rng, 2)
        b = random_tensor(rng, 2)
        ta = tc.from_numpy(manager, a, idx("a0", "a1"))
        tb = tc.from_numpy(manager, b, idx("a0", "a1"))
        assert np.isclose(ta.inner(tb), np.vdot(a, b))

    def test_inner_requires_same_indices(self, manager, rng):
        ta = tc.from_numpy(manager, random_tensor(rng, 1), idx("a0"))
        tb = tc.from_numpy(manager, random_tensor(rng, 1), idx("a1"))
        with pytest.raises(TDDError):
            ta.inner(tb)


class TestRename:
    def test_rename_preserving_order(self, manager, rng):
        arr = random_tensor(rng, 3)
        t = tc.from_numpy(manager, arr, idx("a0", "a1", "a2"))
        renamed = t.rename({"a0": "b0", "a1": "b1", "a2": "b2"})
        assert renamed.index_names == ("b0", "b1", "b2")
        assert np.allclose(renamed.to_numpy(), arr)

    def test_rename_partial(self, manager, rng):
        arr = random_tensor(rng, 2)
        t = tc.from_numpy(manager, arr, idx("a0", "a1"))
        renamed = t.rename({"a1": "a2"})
        assert renamed.index_names == ("a0", "a2")
        assert np.allclose(renamed.to_numpy(), arr)

    def test_rename_order_violation_raises(self, manager, rng):
        arr = random_tensor(rng, 2)
        t = tc.from_numpy(manager, arr, idx("a0", "a1"))
        with pytest.raises(TDDError):
            t.rename({"a0": "b2", "a1": "b0"})  # would swap order

    def test_rename_zero(self, manager):
        t = tc.zero(manager, idx("a0"))
        assert t.rename({"a0": "b0"}).is_zero


class TestComparison:
    def test_same_as_canonical(self, manager, rng):
        arr = random_tensor(rng, 3)
        t1 = tc.from_numpy(manager, arr, idx("a0", "a1", "a2"))
        t2 = tc.from_numpy(manager, arr.copy(), idx("a0", "a1", "a2"))
        assert t1.root.node is t2.root.node

    def test_allclose_tolerates_noise(self, manager, rng):
        arr = random_tensor(rng, 3)
        t1 = tc.from_numpy(manager, arr, idx("a0", "a1", "a2"))
        t2 = tc.from_numpy(manager, arr + 1e-12, idx("a0", "a1", "a2"))
        assert t1.allclose(t2)

    def test_allclose_detects_difference(self, manager, rng):
        arr = random_tensor(rng, 2)
        t1 = tc.from_numpy(manager, arr, idx("a0", "a1"))
        t2 = tc.from_numpy(manager, arr + 0.5, idx("a0", "a1"))
        assert not t1.allclose(t2)

    def test_cross_manager_raises(self, rng):
        m1 = fresh_manager(["a0"])
        m2 = fresh_manager(["a0"])
        t1 = tc.from_numpy(m1, random_tensor(rng, 1), idx("a0"))
        t2 = tc.from_numpy(m2, random_tensor(rng, 1), idx("a0"))
        with pytest.raises(TDDError):
            t1 + t2
