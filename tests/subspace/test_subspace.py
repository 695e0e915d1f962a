"""TDD-backed subspaces: span, join, containment, projectors."""

import numpy as np
import pytest

from repro.errors import SubspaceError
from repro.sim.subspace_dense import DenseSubspace

from tests.helpers import MINUS, ONE, PLUS, ZERO, make_space


class TestSpan:
    def test_span_single_state(self):
        space = make_space(2)
        sub = space.span([space.basis_state([0, 1])])
        assert sub.dimension == 1

    def test_span_dependent_states(self):
        space = make_space(2)
        psi = space.basis_state([0, 1])
        sub = space.span([psi, psi.scaled(2), psi.scaled(-1j)])
        assert sub.dimension == 1

    def test_span_orthogonal_states(self):
        space = make_space(2)
        sub = space.span([space.basis_state([0, 0]),
                          space.basis_state([1, 1])])
        assert sub.dimension == 2

    def test_zero_subspace(self):
        space = make_space(2)
        sub = space.zero_subspace()
        assert sub.is_zero() and sub.dimension == 0

    def test_state_on_wrong_indices_rejected(self):
        space = make_space(2)
        from repro.tdd import construction as tc
        from repro.indices.index import Index
        rogue_idx = Index("z0_0", qubit=0, time=0)
        space.manager.register(rogue_idx)
        rogue = tc.basis_state(space.manager, [rogue_idx], [0])
        with pytest.raises(SubspaceError):
            space.span([rogue])

    def test_product_state_needs_all_qubits(self):
        space = make_space(2)
        with pytest.raises(SubspaceError):
            space.product_state([PLUS])


class TestProjector:
    def test_projector_matches_dense(self, rng):
        space = make_space(3)
        states = [space.from_amplitudes(rng.normal(size=8)
                                        + 1j * rng.normal(size=8))
                  for _ in range(3)]
        sub = space.span(states)
        dense = DenseSubspace.from_vectors(
            [s.to_numpy().reshape(-1) for s in states], 8)
        assert np.allclose(sub.to_dense(), dense.projector(), atol=1e-8)

    def test_projector_idempotent(self, rng):
        space = make_space(2)
        sub = space.span([space.from_amplitudes(rng.normal(size=4))])
        p = sub.to_dense()
        assert np.allclose(p @ p, p, atol=1e-9)

    def test_project_state(self):
        space = make_space(1)
        sub = space.span([space.basis_state([0])])
        mixed = space.product_state([PLUS])
        projected = sub.project_state(mixed)
        expect = np.array([2 ** -0.5, 0])
        assert np.allclose(projected.to_numpy(), expect)


class TestJoinLaws:
    def test_join_dimension_bounds(self, rng):
        space = make_space(3)
        a = space.span([space.from_amplitudes(rng.normal(size=8))
                        for _ in range(2)])
        b = space.span([space.from_amplitudes(rng.normal(size=8))])
        j = a.join(b)
        assert max(a.dimension, b.dimension) <= j.dimension
        assert j.dimension <= a.dimension + b.dimension

    def test_join_commutative(self, rng):
        space = make_space(2)
        a = space.span([space.from_amplitudes(rng.normal(size=4))])
        b = space.span([space.from_amplitudes(rng.normal(size=4))])
        assert a.join(b).equals(b.join(a))

    def test_join_idempotent(self, rng):
        space = make_space(2)
        a = space.span([space.from_amplitudes(rng.normal(size=4))])
        assert a.join(a).equals(a)

    def test_join_with_zero(self, rng):
        space = make_space(2)
        a = space.span([space.from_amplitudes(rng.normal(size=4))])
        assert a.join(space.zero_subspace()).equals(a)

    def test_join_does_not_mutate(self, rng):
        space = make_space(2)
        a = space.span([space.basis_state([0, 0])])
        b = space.span([space.basis_state([1, 1])])
        a.join(b)
        assert a.dimension == 1

    def test_paper_example2(self):
        """Example 2: completing {|++->} with |11-> yields the |v> of
        the paper and the Fig. 1 projector."""
        space = make_space(3)
        s1 = space.product_state([PLUS, PLUS, MINUS])
        s2 = space.product_state([ONE, ONE, MINUS])
        a = space.span([s1])
        b = space.span([s2])
        joined = a.join(b)
        assert joined.dimension == 2
        v = joined.basis[1].to_numpy().reshape(-1)
        expect = -np.kron(
            (np.kron([1, 0], [1, 0]) + np.kron([1, 0], [0, 1])
             + np.kron([0, 1], [1, 0]) - 3 * np.kron([0, 1], [0, 1])),
            MINUS) / (2 * np.sqrt(3))
        assert np.isclose(abs(np.vdot(v, expect)), 1.0, atol=1e-9)


class TestContainment:
    def test_contains_state(self):
        space = make_space(2)
        sub = space.span([space.basis_state([0, 0]),
                          space.basis_state([0, 1])])
        mixed = space.product_state([ZERO, PLUS])
        assert sub.contains_state(mixed)
        assert not sub.contains_state(space.basis_state([1, 0]))

    def test_contains_zero_state(self):
        space = make_space(1)
        from repro.tdd import construction as tc
        zero_state = tc.zero(space.manager, space.kets)
        sub = space.span([space.basis_state([0])])
        assert sub.contains_state(zero_state)

    def test_contains_and_equals(self):
        space = make_space(2)
        big = space.span([space.basis_state([0, 0]),
                          space.basis_state([1, 1])])
        small = space.span([space.basis_state([0, 0])])
        assert big.contains(small)
        assert not small.contains(big)
        assert not big.equals(small)
        assert big.equals(big.copy())

    def test_cross_space_join_rejected(self):
        s1, s2 = make_space(2), make_space(2)
        a = s1.span([s1.basis_state([0, 0])])
        b = s2.span([s2.basis_state([0, 0])])
        with pytest.raises(SubspaceError):
            a.join(b)


class TestMisc:
    def test_max_basis_nodes(self):
        space = make_space(2)
        sub = space.span([space.basis_state([0, 1])])
        assert sub.max_basis_nodes() >= 3

    def test_from_amplitudes_round_trip(self, rng):
        space = make_space(3)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = space.from_amplitudes(amps)
        assert np.allclose(state.to_numpy().reshape(-1), amps)


class TestSaturation:
    def test_full_basis_rejects_without_contracting(self, rng):
        space = make_space(2)
        full = space.span([space.basis_state(bits)
                           for bits in ([0, 0], [0, 1], [1, 0], [1, 1])])
        assert full.is_full()
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = space.from_amplitudes(amps)
        before = space.manager.cache_counters()
        assert full.add_state(state) is None
        assert space.manager.cache_counters() == before
        assert full.dimension == 4

    def test_is_full_only_at_two_to_the_n(self):
        space = make_space(2)
        sub = space.span([space.basis_state([0, 0]),
                          space.basis_state([1, 1])])
        assert space.dimension == 4
        assert not sub.is_full()
        assert not space.zero_subspace().is_full()
