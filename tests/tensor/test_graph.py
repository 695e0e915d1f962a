"""The index graph of Section V.A, including the paper's Fig. 5.

Every gate is a clique over its legs, and ``select_slice_indices``
ranks a circuit's indices by their degree in that graph: the number of
distinct other indices they share a gate with.
"""

from types import SimpleNamespace

from repro.circuits.library import grover_iteration
from repro.image.base import select_slice_indices
from repro.indices.index import Index


def gates(*groups):
    """Stand-in wirings: one gate per group of index names."""
    return [SimpleNamespace(indices=[Index(name) for name in group])
            for group in groups]


def ranked(wirings, count=100, exclude=""):
    return "".join(idx.name for idx in select_slice_indices(
        wirings, count, [Index(name) for name in exclude]))


def degrees(wirings):
    """Each index's degree, counted from the wirings directly."""
    neighbours = {}
    for wiring in wirings:
        for idx in wiring.indices:
            neighbours.setdefault(idx, set()).update(
                other for other in wiring.indices if other != idx)
    return {idx: len(others) for idx, others in neighbours.items()}


class TestBasicGraph:
    def test_clique_per_tensor(self):
        # a and b meet c and each other in one gate, d meets only c
        assert ranked(gates("abc", "cd")) == "cabd"

    def test_shared_index_accumulates_degree(self):
        assert ranked(gates("ab", "bc")) == "bac"

    def test_self_loop_ignored(self):
        # a gate that wires a to itself gives a no neighbour
        assert ranked(gates("aa", "bc")) == "bca"

    def test_highest_degree_excludes(self):
        wirings = gates("ab", "bc", "bd")
        assert ranked(wirings, 1) == "b"
        assert ranked(wirings, 1, exclude="b") == "a"

    def test_highest_degree_tie_break_by_name(self):
        assert ranked(gates("za"), 2) == "az"

    def test_repeated_gate_counts_neighbours_once(self):
        # a and b meet twice but each has one neighbour; c, d and e
        # have two
        assert ranked(gates("ab", "ab", "cde"), 3) == "cde"


class TestGroverFig5:
    """The paper's Fig. 5: the Grover-iteration index graph."""

    def test_grover3_highest_degree_indices(self):
        # Fig. 5 (for the 3-qubit iteration of Fig. 2): the highest
        # degree vertices are internal oracle/diffusion indices, not
        # circuit inputs or outputs; the precise winners depend on the
        # diffusion decomposition
        wirings, inputs, outputs = grover_iteration(3).wirings()
        boundary = set(inputs) | set(outputs)
        top = select_slice_indices(wirings, 3, boundary)
        degree = degrees(wirings)
        assert len(top) == 3
        for index in top:
            assert index not in boundary
            # every sliced candidate is well-connected
            assert degree[index] >= 3

    def test_grover_graph_covers_all_indices(self):
        wirings, _, _ = grover_iteration(4).wirings()
        every = {idx for wiring in wirings for idx in wiring.indices}
        top = select_slice_indices(wirings, len(every) + 1, [])
        assert len(top) == len(every)
        assert set(top) == every

    def test_control_reuse_concentrates_degree(self):
        # The CCX oracle control wires keep one index across the gate,
        # so oracle control indices touch both the oracle clique and
        # the neighbouring Hadamard tensors; the first pick is one
        wirings, _, _ = grover_iteration(3).wirings()
        degree = degrees(wirings)
        (first,) = select_slice_indices(wirings, 1, [])
        assert degree[first] == max(degree.values()) >= 4
