"""Unit tests for the TDD manager: interning, normalisation, reduction."""

import pytest

from repro.errors import IndexError_
from repro.indices.index import Index
from repro.tdd.manager import TDDManager
from repro.tdd.node import TERMINAL_LEVEL

from tests.helpers import fresh_manager


class TestEdges:
    def test_zero_edge_points_at_terminal(self):
        m = TDDManager()
        edge = m.zero_edge()
        assert edge.is_zero
        assert edge.node is m.terminal

    def test_make_edge_zero_weight_collapses(self):
        m = fresh_manager(["a"])
        inner = m.make_node(0, m.scalar_edge(1), m.scalar_edge(2))
        edge = m.make_edge(0, inner.node)
        assert edge.node is m.terminal

    def test_scalar_edge_keeps_tiny_weights(self):
        # outer weights must NOT be clamped (2^-50 amplitudes are real)
        m = TDDManager()
        edge = m.scalar_edge(2.0 ** -50)
        assert not edge.is_zero


class TestMakeNode:
    def test_redundant_node_reduced(self):
        m = fresh_manager(["a"])
        child = m.scalar_edge(0.5)
        edge = m.make_node(0, child, m.make_edge(child.weight, child.node))
        assert edge.node is m.terminal
        assert edge.weight == 0.5

    def test_children_equal_only_after_interning_are_redundant(self):
        # the raw weights differ by 1e-14, so only the test on the
        # interned weights sees the node is redundant
        m = fresh_manager(["a", "b"])
        low = m.make_node(0, m.scalar_edge(1), m.scalar_edge(2))
        before = m.live_nodes
        edge = m.make_node(1, m.make_edge(1.0, low.node),
                           m.make_edge(1.0 + 1e-14, low.node))
        assert edge.node is low.node
        assert edge.weight == pytest.approx(1.0, abs=1e-13)
        assert m.live_nodes == before

    def test_both_zero_children(self):
        m = fresh_manager(["a"])
        edge = m.make_node(0, m.zero_edge(), m.zero_edge())
        assert edge.is_zero

    def test_normalisation_by_larger_magnitude(self):
        m = fresh_manager(["a"])
        edge = m.make_node(0, m.scalar_edge(0.5), m.scalar_edge(-1.0))
        assert edge.weight == -1.0
        assert edge.node.low.weight == -0.5
        assert edge.node.high.weight == 1.0

    def test_normalisation_tie_prefers_low(self):
        m = fresh_manager(["a"])
        edge = m.make_node(0, m.scalar_edge(1.0), m.scalar_edge(-1.0))
        assert edge.weight == 1.0
        assert edge.node.low.weight == 1.0
        assert edge.node.high.weight == -1.0

    def test_dominant_child_weight_is_exactly_one(self):
        # the larger child gets 1+0j without the weight table, whatever
        # its phase; only the other child's ratio is interned
        m = fresh_manager(["a"])
        for low, high in [(0.3 - 0.4j, 0.1j), (1e-3, -7.25 + 2j),
                          (0.6 + 0.8j, 0.8 - 0.6j)]:
            node = m.make_node(0, m.scalar_edge(low),
                               m.scalar_edge(high)).node
            dominant = node.low if abs(low) >= abs(high) else node.high
            assert type(dominant.weight) is complex
            assert dominant.weight == 1 + 0j

    def test_interning_same_node(self):
        m = fresh_manager(["a"])
        e1 = m.make_node(0, m.scalar_edge(1), m.scalar_edge(2))
        e2 = m.make_node(0, m.scalar_edge(2), m.scalar_edge(4))
        assert e1.node is e2.node
        assert e2.weight == 2 * e1.weight

    def test_distinct_levels_distinct_nodes(self):
        m = fresh_manager(["a", "b"])
        e1 = m.make_node(0, m.scalar_edge(1), m.zero_edge())
        e2 = m.make_node(1, m.scalar_edge(1), m.zero_edge())
        assert e1.node is not e2.node

    def test_nodes_made_counter(self):
        m = fresh_manager(["a"])
        before = m.nodes_made
        m.make_node(0, m.scalar_edge(1), m.scalar_edge(3))
        m.make_node(0, m.scalar_edge(2), m.scalar_edge(6))  # same interned
        assert m.nodes_made == before + 1


class TestRegistration:
    def test_register_returns_level(self):
        m = TDDManager()
        assert m.register(Index("a")) == 0
        assert m.register(Index("b")) == 1
        assert m.register(Index("a")) == 0  # idempotent

    def test_unknown_index_raises(self):
        m = TDDManager()
        with pytest.raises(IndexError_):
            m.level(Index("missing"))

    def test_terminal_level_is_max(self):
        m = TDDManager()
        assert m.terminal.level == TERMINAL_LEVEL
        assert m.terminal.is_terminal


class TestBookkeeping:
    def test_live_nodes_and_reset(self):
        m = fresh_manager(["a", "b"])
        m.make_node(0, m.scalar_edge(1), m.scalar_edge(2))
        assert m.live_nodes == 1
        m.reset()
        assert m.live_nodes == 0
        assert m.nodes_made == 0
        # only the permanent 1.0 representative is left
        assert len(m.weights) == 1

    def test_clear_caches_keeps_nodes(self):
        m = fresh_manager(["a"])
        e = m.make_node(0, m.scalar_edge(1), m.scalar_edge(2))
        m.add(e, e)
        m.clear_caches()
        assert m.live_nodes >= 1
