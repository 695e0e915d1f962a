"""Tensor-network fold semantics (multiplicity-driven sums)."""

import numpy as np
import pytest

from repro.errors import TDDError
from repro.indices.index import Index
from repro.tdd import construction as tc
from repro.tensor.dense import DenseTensor
from repro.tensor.network import contract_network

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
        out = contract_network([a, b, c], {idx("i"), idx("l")})
        expect = a.array @ b.array @ c.array
        assert np.allclose(out.transpose_like(
            [idx("i"), idx("l")]).array, expect)

    def test_open_index_not_summed(self, rng):
        a = dense(rng, ["i", "j"])
        b = dense(rng, ["j", "k"])
        out = contract_network([a, b], {idx("i"), idx("j"), idx("k")})
        assert set(out.index_names) == {"i", "j", "k"}

    def test_hyperedge_summed_only_at_last_use(self, rng):
        # index j shared by three tensors: must survive the first
        # pairwise contraction and be summed at the last
        a = dense(rng, ["i", "j"])
        b = dense(rng, ["j"])
        c = dense(rng, ["j", "k"])
        out = contract_network([a, b, c], {idx("i"), idx("k")})
        expect = np.einsum("ij,j,jk->ik", a.array, b.array, c.array)
        assert np.allclose(out.transpose_like(
            [idx("i"), idx("k")]).array, expect)

    def test_disconnected_product(self, rng):
        a = dense(rng, ["i"])
        b = dense(rng, ["j"])
        out = contract_network([a, b], {idx("i"), idx("j")})
        assert np.allclose(out.transpose_like(
            [idx("i"), idx("j")]).array, np.outer(a.array, b.array))

    def test_custom_order(self, rng):
        a = dense(rng, ["i", "j"])
        b = dense(rng, ["j", "k"])
        c = dense(rng, ["k", "l"])
        out = contract_network([c, b, a], {idx("i"), idx("l")})
        expect = a.array @ b.array @ c.array
        assert np.allclose(out.transpose_like(
            [idx("i"), idx("l")]).array, expect)

    @pytest.mark.parametrize("backend", ["dense", "tdd"])
    def test_custom_order_over_hyperedge(self, rng, backend):
        # j is shared by three tensors; the list folds an unrelated
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
        out = contract_network([tensors[pos] for pos in (3, 0, 2, 1)],
                               {idx("i"), idx("l")})
        if backend == "dense":
            got = out.transpose_like([idx("i"), idx("l")]).array
        else:
            assert out.index_names == ("i", "l")
            got = out.to_numpy()
        expect = np.einsum("ij,j,jk,kl->il", *arrays)
        assert np.allclose(got, expect)

    def test_empty_network_raises(self):
        with pytest.raises(TDDError):
            contract_network([], set())

    def test_observer_sees_intermediates(self, rng):
        a = dense(rng, ["i", "j"])
        b = dense(rng, ["j", "k"])
        c = dense(rng, ["k", "l"])
        seen = []
        contract_network([a, b, c], {idx("i"), idx("l")}, seen.append)
        assert len(seen) == 2  # two pairwise folds


class TestBookkeeping:
    def test_multiplicity(self, rng):
        # j has two holders and is summed; i has one and stays, though
        # it is not declared open
        a = dense(rng, ["i", "j"])
        b = dense(rng, ["j"])
        out = contract_network([a, b], set())
        assert out.index_names == ("i",)
        assert np.allclose(out.array, a.array @ b.array)
