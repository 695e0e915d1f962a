"""Standalone join helpers."""

import numpy as np

from repro.subspace.join import join, orthonormalize

from tests.helpers import make_space


class TestOrthonormalize:
    def test_produces_orthonormal_basis(self, rng):
        space = make_space(3)
        states = [space.from_amplitudes(rng.normal(size=8))
                  for _ in range(3)]
        sub = orthonormalize(space, states)
        for i, a in enumerate(sub.basis):
            for j, b in enumerate(sub.basis):
                expect = 1.0 if i == j else 0.0
                assert np.isclose(abs(a.inner(b)), expect, atol=1e-8)

    def test_handles_duplicates(self):
        space = make_space(2)
        psi = space.basis_state([1, 0])
        sub = orthonormalize(space, [psi, psi, psi])
        assert sub.dimension == 1


class TestJoin:
    def test_join_function(self):
        space = make_space(2)
        a = space.span([space.basis_state([0, 0])])
        b = space.span([space.basis_state([0, 1])])
        assert join(a, b).dimension == 2
