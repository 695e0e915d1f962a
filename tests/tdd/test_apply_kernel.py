"""The iterative apply kernel: depth stress and recursive-free guarantees.

The seed implementation recursed one Python frame per TDD level and
bumped ``sys.setrecursionlimit`` to 100k from ``TDDManager.__init__``;
the iterative engine must handle benchmark-scale diagrams under the
interpreter's *default* limit of 1000, with no global side effects.
"""

import sys

import numpy as np
import pytest

from repro.indices.index import Index
from repro.mc.config import CheckerConfig
from repro.systems import models
from repro.tdd import construction as tc
from repro.tdd.manager import TDDManager
from repro.tdd.slicing import first_nonzero_assignment, slice_edge

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
        sliced = slice_edge(m, state.root, target, 1)
        assert not sliced.is_zero
        assert slice_edge(m, state.root, target, 0).is_zero
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
