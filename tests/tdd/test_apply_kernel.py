"""The iterative apply kernel: depth stress, recursion-free guarantees
and the ``(weight, node)`` pair boundary.

The seed implementation recursed one Python frame per TDD level and
bumped ``sys.setrecursionlimit`` to 100k from ``TDDManager.__init__``;
the iterative engine must handle benchmark-scale diagrams under the
interpreter's *default* limit of 1000, with no global side effects.
The kernels take and return plain ``(weight, node)`` pairs, and an
:class:`~repro.tdd.node.Edge` (a named tuple) feeds them as well.
"""

import sys

import numpy as np
import pytest

from repro.indices.index import Index
from repro.mc.config import CheckerConfig
from repro.systems import models
from repro.tdd import construction as tc
from repro.tdd.apply import (add_apply, combine_apply, contract_apply,
                             inner_apply)
from repro.tdd.manager import TDDManager
from repro.tdd.node import Edge
from repro.tdd.slicing import first_nonzero_assignment, slice_edge
from repro.tdd.tdd import TDD

from tests.helpers import fresh_manager

#: the contraction method at the paper's Table I setting
CONTRACTION_K4 = CheckerConfig(method="contraction",
                               method_params={"k1": 4, "k2": 4})

#: enough levels that one frame per level would overflow the default
#: interpreter stack several times over
DEEP = 3000


@pytest.fixture
def default_recursion_limit():
    """Clamp the interpreter to its default limit for the test body."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def _deep_manager(count: int = DEEP) -> TDDManager:
    return fresh_manager([f"v{i:05d}" for i in range(count)])


def _deep_indices(manager: TDDManager, count: int = DEEP):
    return [manager.order.index_at(level) for level in range(count)]


class TestManagerSideEffects:
    def test_constructor_leaves_recursion_limit_alone(self):
        old = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(1000)
            TDDManager()
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(old)

    def test_no_setrecursionlimit_in_src(self):
        # the kernel contract: nothing under src/ touches the limit
        import pathlib
        import repro
        src = pathlib.Path(repro.__file__).parent
        offenders = [p for p in src.rglob("*.py")
                     if "setrecursionlimit" in p.read_text()]
        assert offenders == []


class TestDeepDiagrams:
    def test_deep_add(self, default_recursion_limit):
        m = _deep_manager()
        idx = _deep_indices(m)
        a = tc.basis_state(m, idx, [0] * DEEP)
        b = tc.basis_state(m, idx, [1] * DEEP)
        total = a + b
        assert total.value({i: 0 for i in idx}) == 1
        assert total.value({i: 1 for i in idx}) == 1
        mixed = {i: (0 if n % 2 else 1) for n, i in enumerate(idx)}
        assert total.value(mixed) == 0

    def test_deep_contract(self, default_recursion_limit):
        m = _deep_manager()
        idx = _deep_indices(m)
        bits = [i % 2 for i in range(DEEP)]
        state = tc.basis_state(m, idx, bits)
        # <state|state> sums over every level — full-depth contraction
        overlap = state.conj().contract(state, idx)
        assert overlap.scalar_value() == pytest.approx(1)

    def test_deep_inner(self, default_recursion_limit):
        m = _deep_manager()
        idx = _deep_indices(m)
        bits = [i % 2 for i in range(DEEP)]
        state = tc.basis_state(m, idx, bits).scaled(1j)
        other = tc.basis_state(m, idx, [1 - b for b in bits])
        # the scalar walk descends every level of both diagrams
        assert state.inner(state) == pytest.approx(1)
        assert state.norm() == pytest.approx(1)
        assert state.inner(other) == 0
        mixed = state + other
        assert mixed.inner(state) == pytest.approx(1)
        assert state.inner(mixed) == pytest.approx(1)

    def test_deep_product_and_size(self, default_recursion_limit):
        m = _deep_manager()
        idx = _deep_indices(m)
        half = DEEP // 2
        left = tc.basis_state(m, idx[:half], [0] * half)
        right = tc.basis_state(m, idx[half:], [1] * (DEEP - half))
        product = left.product(right)
        assert product.size() == DEEP + 1
        assert product.rank == DEEP

    def test_deep_conjugate_and_rename(self, default_recursion_limit):
        m = fresh_manager([f"v{i:05d}" for i in range(DEEP)]
                          + [f"w{i:05d}" for i in range(DEEP)])
        idx = [m.order.index_at(level) for level in range(DEEP)]
        new = [m.order.index_at(level) for level in range(DEEP, 2 * DEEP)]
        state = tc.basis_state(m, idx, [1] * DEEP).scaled(1j)
        conj = state.conj()
        assert conj.value({i: 1 for i in idx}) == pytest.approx(-1j)
        renamed = state.rename(dict(zip(idx, new)))
        assert renamed.value({i: 1 for i in new}) == pytest.approx(1j)

    def test_deep_slice_and_nonzero_path(self, default_recursion_limit):
        m = _deep_manager()
        idx = _deep_indices(m)
        bits = [1] * DEEP
        state = tc.basis_state(m, idx, bits)
        target = DEEP // 2
        sliced, _ = slice_edge(m, state.root, target, 1)
        assert sliced != 0
        assert slice_edge(m, state.root, target, 0) == (0j, m.terminal)
        found = first_nonzero_assignment(
            state.root, frozenset(range(DEEP)))
        assert found == {level: 1 for level in range(DEEP)}


class TestBenchmarkScale:
    def test_qrw64_image_under_default_limit(self, default_recursion_limit):
        """The ISSUE acceptance case: 64-qubit QRW contraction."""
        qts = models.qrw_qts(64, 0.1, steps=1)
        from repro.image.engine import compute_image
        result = compute_image(qts, config=CONTRACTION_K4)
        assert result.dimension == 1
        assert result.stats.max_nodes > 0
        # instrumentation flows through for the deep instance too
        assert result.stats.cache_misses > 0
        assert result.stats.peak_live_nodes >= result.stats.live_nodes

    def test_ghz128_image_under_default_limit(self, default_recursion_limit):
        qts = models.ghz_qts(128)
        from repro.image.engine import compute_image
        result = compute_image(qts, config=CONTRACTION_K4)
        assert result.dimension == 1


class TestDeepSerialisation:
    def test_deep_io_round_trip(self, default_recursion_limit):
        from repro.tdd.io import from_dict, to_dict, to_dot
        m = _deep_manager()
        idx = _deep_indices(m)
        state = tc.basis_state(m, idx, [i % 2 for i in range(DEEP)])
        data = to_dict(state)
        rebuilt = from_dict(m, data)
        assert rebuilt.same_as(state)
        dot = to_dot(state)
        assert dot.count("shape=oval") == DEEP


class TestEquivalenceWithDense:
    def test_add_matches_numpy(self, rng, default_recursion_limit):
        m = fresh_manager(list("abcdef"))
        idx = [Index(n) for n in "abcdef"]
        x = rng.normal(size=(2,) * 6) + 1j * rng.normal(size=(2,) * 6)
        y = rng.normal(size=(2,) * 6) + 1j * rng.normal(size=(2,) * 6)
        tx = tc.from_numpy(m, x, idx)
        ty = tc.from_numpy(m, y, idx)
        np.testing.assert_allclose((tx + ty).to_numpy(), x + y, atol=1e-8)

    def test_contract_matches_numpy(self, rng, default_recursion_limit):
        m = fresh_manager(list("abcde"))
        a, b, c, d, e = (Index(n) for n in "abcde")
        x = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        y = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        tx = tc.from_numpy(m, x, [a, b, c])
        ty = tc.from_numpy(m, y, [c, d, e])
        out = tx.contract(ty, [c])
        expect = np.einsum("abc,cde->abde", x, y)
        np.testing.assert_allclose(out.to_numpy(), expect, atol=1e-8)


class TestPairBoundary:
    """Kernels on raw pairs and on handle roots; zero and underflow
    results; what :class:`Edge` keeps meaning."""

    NAMES = ("a", "b", "c")

    def _operands(self, rng):
        m = fresh_manager(self.NAMES)
        idx = [Index(n) for n in self.NAMES]
        x = tc.from_numpy(m, rng.normal(size=(2,) * 3)
                          + 1j * rng.normal(size=(2,) * 3), idx)
        y = tc.from_numpy(m, rng.normal(size=(2,) * 3), idx)
        return m, x, y

    def test_kernels_agree_on_pairs_and_roots(self, rng):
        m, x, y = self._operands(rng)
        levels = (0, 1, 2)
        assert isinstance(x.root, Edge)
        raw_x, raw_y = tuple(x.root), tuple(y.root)
        assert type(raw_x) is tuple
        calls = [
            lambda a, b: add_apply(m, a, b),
            lambda a, b: contract_apply(m, a, b, (1,)),
            lambda a, b: combine_apply(m, [(0.5, a), (2j, b), (1, a)]),
        ]
        for call in calls:
            from_roots = call(x.root, y.root)
            from_pairs = call(raw_x, raw_y)
            assert type(from_pairs) is tuple
            assert from_pairs[1] is from_roots[1]
            assert from_pairs[0] == from_roots[0]
        assert (inner_apply(m, raw_x, raw_y, levels)
                == inner_apply(m, x.root, y.root, levels))

    def test_zero_results_point_at_the_terminal(self, rng):
        m, x, _ = self._operands(rng)
        zero = (0j, m.terminal)
        minus_x = (-x.root.weight, x.root.node)
        assert add_apply(m, x.root, minus_x) == zero
        assert combine_apply(m, [(1, x.root), (-1, x.root)]) == zero
        assert combine_apply(m, []) == zero
        assert contract_apply(m, x.root, m.zero_edge(), (0,)) == zero
        for result in (add_apply(m, x.root, minus_x),
                       contract_apply(m, m.zero_edge(), x.root, ())):
            assert result[1] is m.terminal

    def test_contract_underflow_is_the_zero_edge(self, rng):
        m, x, _ = self._operands(rng)
        tiny = (1e-200 + 0j, m.terminal)
        assert 1e-200 * 1e-200 == 0
        assert contract_apply(m, tiny, tiny, ()) == tuple(
            m.scalar_edge(1e-200 * 1e-200))
        assert contract_apply(m, tiny, tiny, ()) == (0j, m.terminal)
        # the same underflow below a node: the factored weight is 0
        tiny_x = (1e-200 + 0j, x.root.node)
        assert contract_apply(m, tiny_x, tiny, ()) == (0j, m.terminal)
        assert contract_apply(m, tiny_x, tiny_x, (0, 1, 2)) == (
            0j, m.terminal)

    def test_edge_keeps_its_meaning(self):
        m = fresh_manager(["a"])
        node = m.make_node(0, Edge(1.0, m.terminal),
                           Edge(0.5, m.terminal)).node
        edge = Edge(0.5, node)
        assert edge.weight == 0.5 and edge.node is node
        assert edge.same_as(Edge(0.5, node))
        assert edge.same_as((0.5, node))
        assert not edge.same_as(Edge(0.5, m.terminal))
        assert not edge.same_as(Edge(0.25, node))
        assert Edge(0j, m.terminal).is_zero and not edge.is_zero
        # a named tuple compares and hashes by value, as same_as does
        assert edge == Edge(0.5, node) == (0.5, node)
        assert hash(edge) == hash((0.5, node))

    def test_hand_built_edges_feed_make_node_and_kernels(self):
        m = fresh_manager(["a"])
        made = m.make_node(0, Edge(1.0, m.terminal), Edge(2.0, m.terminal))
        assert isinstance(made, Edge)
        assert type(made.weight) is complex
        assert made.same_as(m.make_pair(0, (1 + 0j, m.terminal),
                                        (2 + 0j, m.terminal)))
        total = add_apply(m, Edge(1.0, m.terminal), Edge(2.0, m.terminal))
        assert total == (3, m.terminal)

    def test_handles_hold_an_edge_root(self, rng):
        m, x, _ = self._operands(rng)
        wrapped = TDD(m, tuple(x.root), x.indices)
        assert isinstance(wrapped.root, Edge)
        assert wrapped.same_as(x)
        assert isinstance((x + x).root, Edge)
        assert isinstance(x.contract(x, [Index("a")]).root, Edge)
