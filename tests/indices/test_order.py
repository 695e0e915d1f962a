"""Index orders."""

import pytest

from repro.errors import IndexError_
from repro.indices.index import Index
from repro.indices.order import IndexOrder


class TestRegistration:
    def test_levels_increase(self):
        order = IndexOrder()
        assert order.register(Index("a")) == 0
        assert order.register(Index("b")) == 1

    def test_idempotent(self):
        order = IndexOrder()
        order.register(Index("a"))
        assert order.register(Index("a")) == 0
        assert len(order) == 1

    def test_unknown_raises(self):
        order = IndexOrder()
        with pytest.raises(IndexError_):
            order.level(Index("ghost"))

    def test_contains_and_index_at(self):
        order = IndexOrder([Index("a"), Index("b")])
        assert Index("a") in order
        assert Index("z") not in order
        assert order.index_at(1) == Index("b")

    def test_sorted(self):
        order = IndexOrder([Index("a"), Index("b"), Index("c")])
        assert order.sorted([Index("c"), Index("a")]) == [Index("a"),
                                                          Index("c")]

