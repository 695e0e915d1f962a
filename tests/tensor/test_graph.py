"""The index graph of Section V.A, including the paper's Fig. 5."""

from repro.circuits.library import grover_iteration
from repro.circuits.network import circuit_to_dense_network
from repro.indices.index import Index
from repro.tensor.graph import IndexGraph


def cliques(groups):
    """The graph with one clique per index group."""
    graph = IndexGraph()
    for group in groups:
        graph.add_clique(group)
    return graph


class TestBasicGraph:
    def test_clique_per_tensor(self):
        g = cliques([
            [Index("a"), Index("b"), Index("c")],
        ])
        assert g.degree(Index("a")) == 2
        assert g.edge_count() == 3

    def test_shared_index_accumulates_degree(self):
        g = cliques([
            [Index("a"), Index("b")],
            [Index("b"), Index("c")],
        ])
        assert g.degree(Index("b")) == 2
        assert g.degree(Index("a")) == 1

    def test_self_loop_ignored(self):
        g = IndexGraph()
        g.add_edge(Index("a"), Index("a"))
        assert g.degree(Index("a")) == 0

    def test_highest_degree_excludes(self):
        g = cliques([
            [Index("a"), Index("b")],
            [Index("b"), Index("c")],
            [Index("b"), Index("d")],
        ])
        top = g.highest_degree(1)
        assert top == [Index("b")]
        top = g.highest_degree(1, exclude=[Index("b")])
        assert top[0] != Index("b")

    def test_highest_degree_tie_break_by_name(self):
        g = cliques([
            [Index("z"), Index("a")],
        ])
        assert g.highest_degree(2) == [Index("a"), Index("z")]


class TestGroverFig5:
    """The paper's Fig. 5: the Grover-iteration index graph."""

    def test_grover3_highest_degree_indices(self):
        # Fig. 5 (for the 3-qubit iteration of Fig. 2): the highest
        # degree vertices are x1^1, x2^1 and x1^3 (1-based). In our
        # 0-based naming these are x0_1, x1_1 and x0_3... the precise
        # winners depend on the diffusion decomposition; what must hold
        # is that the top vertices are *internal* oracle/diffusion
        # indices, not circuit inputs/outputs.
        circuit = grover_iteration(3)
        network, inputs, outputs = circuit_to_dense_network(circuit)
        graph = IndexGraph.from_tensors(network.tensors)
        boundary = set(inputs) | set(outputs)
        top = graph.highest_degree(3, exclude=boundary)
        assert len(top) == 3
        for index in top:
            assert index not in boundary
            # every sliced candidate is well-connected
            assert graph.degree(index) >= 3

    def test_grover_graph_covers_all_indices(self):
        circuit = grover_iteration(4)
        network, inputs, outputs = circuit_to_dense_network(circuit)
        graph = IndexGraph.from_tensors(network.tensors)
        all_indices = set()
        for tensor in network.tensors:
            all_indices.update(tensor.indices)
        assert set(graph.vertices) == all_indices

    def test_control_reuse_concentrates_degree(self):
        # The CCX oracle control wires keep one index across the gate,
        # so oracle control indices touch both the oracle clique and
        # the neighbouring Hadamard tensors.
        circuit = grover_iteration(3)
        network, inputs, outputs = circuit_to_dense_network(circuit)
        graph = IndexGraph.from_tensors(network.tensors)
        degrees = graph.degrees()
        max_degree = max(degrees.values())
        assert max_degree >= 4
