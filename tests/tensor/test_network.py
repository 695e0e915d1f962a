"""TensorNetwork contraction semantics (multiplicity-driven sums)."""

import numpy as np
import pytest

from repro.errors import TDDError
from repro.indices.index import Index
from repro.tdd import construction as tc
from repro.tensor.dense import DenseTensor
from repro.tensor.network import TensorNetwork

from tests.helpers import fresh_manager, random_tensor


def idx(name):
    return Index(name)


def dense(rng, names):
    return DenseTensor(random_tensor(rng, len(names)),
                       [Index(n) for n in names])


class TestContractAll:
    def test_chain_matches_einsum(self, rng):
        a = dense(rng, ["i", "j"])
        b = dense(rng, ["j", "k"])
        c = dense(rng, ["k", "l"])
        net = TensorNetwork([a, b, c], {idx("i"), idx("l")})
        out = net.contract_all()
        expect = a.array @ b.array @ c.array
        assert np.allclose(out.transpose_like(
            [idx("i"), idx("l")]).array, expect)

    def test_open_index_not_summed(self, rng):
        a = dense(rng, ["i", "j"])
        b = dense(rng, ["j", "k"])
        net = TensorNetwork([a, b], {idx("i"), idx("j"), idx("k")})
        out = net.contract_all()
        assert set(out.index_names) == {"i", "j", "k"}

    def test_hyperedge_summed_only_at_last_use(self, rng):
        # index j shared by three tensors: must survive the first
        # pairwise contraction and be summed at the last
        a = dense(rng, ["i", "j"])
        b = dense(rng, ["j"])
        c = dense(rng, ["j", "k"])
        net = TensorNetwork([a, b, c], {idx("i"), idx("k")})
        out = net.contract_all()
        expect = np.einsum("ij,j,jk->ik", a.array, b.array, c.array)
        assert np.allclose(out.transpose_like(
            [idx("i"), idx("k")]).array, expect)

    def test_disconnected_product(self, rng):
        a = dense(rng, ["i"])
        b = dense(rng, ["j"])
        net = TensorNetwork([a, b], {idx("i"), idx("j")})
        out = net.contract_all()
        assert np.allclose(out.transpose_like(
            [idx("i"), idx("j")]).array, np.outer(a.array, b.array))

    def test_custom_order(self, rng):
        a = dense(rng, ["i", "j"])
        b = dense(rng, ["j", "k"])
        c = dense(rng, ["k", "l"])
        net = TensorNetwork([a, b, c], {idx("i"), idx("l")})
        out = net.contract_all(order=[2, 1, 0])
        expect = a.array @ b.array @ c.array
        assert np.allclose(out.transpose_like(
            [idx("i"), idx("l")]).array, expect)

    @pytest.mark.parametrize("backend", ["dense", "tdd"])
    def test_custom_order_over_hyperedge(self, rng, backend):
        # j is shared by three tensors; the order folds an unrelated
        # tensor first, so j must stay open through two folds and be
        # summed only when its last two holders meet
        names = [["i", "j"], ["j"], ["j", "k"], ["k", "l"]]
        arrays = [random_tensor(rng, len(n)) for n in names]
        if backend == "dense":
            tensors = [DenseTensor(a, [idx(x) for x in n])
                       for a, n in zip(arrays, names)]
        else:
            manager = fresh_manager(["i", "j", "k", "l"])
            tensors = [tc.from_numpy(manager, a, [idx(x) for x in n])
                       for a, n in zip(arrays, names)]
        net = TensorNetwork(tensors, {idx("i"), idx("l")})
        out = net.contract_all(order=[3, 0, 2, 1])
        if backend == "dense":
            got = out.transpose_like([idx("i"), idx("l")]).array
        else:
            assert out.index_names == ("i", "l")
            got = out.to_numpy()
        expect = np.einsum("ij,j,jk,kl->il", *arrays)
        assert np.allclose(got, expect)

    def test_bad_order_raises(self, rng):
        net = TensorNetwork([dense(rng, ["i"])], {idx("i")})
        with pytest.raises(ValueError):
            net.contract_all(order=[0, 0])

    def test_empty_network_raises(self):
        with pytest.raises(TDDError):
            TensorNetwork([], set()).contract_all()

    def test_observer_sees_intermediates(self, rng):
        a = dense(rng, ["i", "j"])
        b = dense(rng, ["j", "k"])
        c = dense(rng, ["k", "l"])
        seen = []
        net = TensorNetwork([a, b, c], {idx("i"), idx("l")})
        net.contract_all(observer=seen.append)
        assert len(seen) == 2  # two pairwise folds


class TestBookkeeping:
    def test_multiplicity(self, rng):
        a = dense(rng, ["i", "j"])
        b = dense(rng, ["j"])
        net = TensorNetwork([a, b], set())
        counts = net.index_multiplicity()
        assert counts[idx("j")] == 2
        assert counts[idx("i")] == 1

    def test_validate_missing_open(self, rng):
        net = TensorNetwork([dense(rng, ["i"])], {idx("ghost")})
        with pytest.raises(TDDError):
            net.validate()

    def test_contract_pair_self_raises(self, rng):
        net = TensorNetwork([dense(rng, ["i"])], set())
        with pytest.raises(ValueError):
            net.contract_pair(0, 0)
