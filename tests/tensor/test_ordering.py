"""The greedy fold order of a tensor network."""

from repro.indices.index import Index
from repro.tensor.dense import DenseTensor
from repro.tensor.network import contract_network
from repro.tensor.ordering import greedy_order

from tests.helpers import random_tensor


def legs(*groups):
    return [[Index(name) for name in group] for group in groups]


def indices(*names):
    return {Index(name) for name in names}


class TestSequential:
    def test_identity_order(self, rng):
        # contract_network folds in list order: greedy order would
        # fold b-c into a-b first, the list order folds c-d first
        tensors = [DenseTensor(random_tensor(rng, len(names)),
                               [Index(name) for name in names])
                   for names in ("ab", "cd", "bc")]
        seen = []
        contract_network(tensors, indices("a", "d"), seen.append)
        assert [set(t.indices) for t in seen] == [
            indices("a", "b", "c", "d"), indices("a", "d")]


class TestGreedy:
    def test_is_permutation(self):
        order = greedy_order(legs("ab", "bc", "xy", "cd"),
                             indices("a", "d", "x", "y"))
        assert sorted(order) == [0, 1, 2, 3]

    def test_prefers_connected_tensors(self):
        # starting from 0 (a-b), the next pick should share an index
        order = greedy_order(legs("ab", "xy", "bc"),
                             indices("a", "c", "x", "y"))
        assert order[1] == 2  # the connected one, not the disjoint one

    def test_prefers_the_smaller_accumulator(self):
        # b has three holders, so it stays open: from a-b, folding
        # b-c-d leaves a, b, c, d and folding b-e leaves a, b, e, so
        # b-e goes first although it comes later in the list
        order = greedy_order(legs("ab", "bcd", "be"),
                             indices("a", "c", "d", "e"))
        assert order == [0, 2, 1]

    def test_ties_keep_list_order(self):
        order = greedy_order(legs("ab", "bc", "bd"),
                             indices("a", "c", "d"))
        assert order == [0, 1, 2]

    def test_result_matches_sequential(self, rng):
        # folding in greedy order and in list order gives one tensor
        tensors = [DenseTensor(random_tensor(rng, len(names)),
                               [Index(name) for name in names])
                   for names in ("ab", "cd", "bc")]
        open_set = indices("a", "d")
        order = greedy_order([t.indices for t in tensors], open_set)
        assert order != [0, 1, 2]
        out1 = contract_network(tensors, open_set)
        out2 = contract_network([tensors[pos] for pos in order], open_set)
        assert out1.allclose(out2)

    def test_empty(self):
        assert greedy_order([], set()) == []
