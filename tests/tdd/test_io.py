"""TDD DOT / dict export."""

import numpy as np

from repro.indices.index import Index
from repro.tdd import construction as tc
from repro.tdd.io import to_dict, to_dot

from tests.helpers import fresh_manager


def idx(*names):
    return [Index(n) for n in names]


class TestToDot:
    def test_contains_digraph_and_labels(self):
        m = fresh_manager(["a0", "a1"])
        d = tc.delta(m, idx("a0", "a1"))
        dot = to_dot(d, name="identity")
        assert dot.startswith("digraph identity {")
        assert '"a0"' in dot and '"a1"' in dot
        assert dot.rstrip().endswith("}")

    def test_zero_edges_omitted(self):
        m = fresh_manager(["a0"])
        t = tc.basis_state(m, idx("a0"), [1])
        dot = to_dot(t)
        # the low edge (weight 0) must not appear: only one node->node edge
        arrow_lines = [l for l in dot.splitlines()
                       if "->" in l and "root" not in l]
        assert len(arrow_lines) == 1

    def test_weight_labels(self):
        m = fresh_manager(["a0"])
        arr = np.array([1.0, -0.5])
        t = tc.from_numpy(m, arr, idx("a0"))
        dot = to_dot(t)
        assert "-0.5" in dot

    def test_zero_tensor(self):
        m = fresh_manager(["a0"])
        dot = to_dot(tc.zero(m, idx("a0")))
        assert "digraph" in dot


class TestToDict:
    def test_structure(self):
        m = fresh_manager(["a0", "a1"])
        d = tc.delta(m, idx("a0", "a1"))
        data = to_dict(d)
        assert data["indices"] == ["a0", "a1"]
        assert data["root_node"] is not None
        assert any(n.get("terminal") for n in data["nodes"])

    def test_weights_serialised_as_pairs(self):
        m = fresh_manager(["a0"])
        t = tc.from_numpy(m, np.array([1.0, 1j]), idx("a0"))
        data = to_dict(t)
        for node in data["nodes"]:
            for tag in ("low", "high"):
                edge = node.get(tag)
                if edge:
                    assert len(edge["weight"]) == 2

    def test_shared_nodes_appear_once(self):
        m = fresh_manager(["a0", "a1"])
        # f = a0 XOR-like sharing: both branches point at same child
        inner = tc.basis_state(m, idx("a1"), [1])
        t = tc.from_numpy(m, np.ones(2), idx("a0")).product(inner)
        data = to_dict(t)
        labels = [n.get("index") for n in data["nodes"]]
        assert labels.count("a1") == 1
