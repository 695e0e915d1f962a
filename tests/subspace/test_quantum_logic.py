"""Lattice operations: complement, meet, overlap (BvN quantum logic)."""

import numpy as np
import pytest

from repro.errors import SubspaceError

from tests.helpers import make_space


class TestComplement:
    def test_dimension(self):
        space = make_space(2)
        sub = space.span([space.basis_state([0, 0])])
        comp = sub.complement()
        assert comp.dimension == 3

    def test_orthogonality(self):
        space = make_space(2)
        sub = space.span([space.basis_state([0, 1]),
                          space.basis_state([1, 0])])
        comp = sub.complement()
        assert sub.overlap(comp) <= 1e-9

    def test_involution(self, rng):
        space = make_space(2)
        sub = space.span([space.from_amplitudes(rng.normal(size=4))
                          for _ in range(2)])
        assert sub.complement().complement().equals(sub)

    def test_complement_of_zero_is_full(self):
        space = make_space(2)
        comp = space.zero_subspace().complement()
        assert comp.dimension == 4

    def test_projectors_sum_to_identity(self, rng):
        space = make_space(2)
        sub = space.span([space.from_amplitudes(rng.normal(size=4))])
        total = sub.to_dense() + sub.complement().to_dense()
        assert np.allclose(total, np.eye(4), atol=1e-8)


class TestMeet:
    def test_overlapping_planes(self):
        space = make_space(2)
        # span{|00>,|01>} meet span{|00>,|10>} = span{|00>}
        a = space.span([space.basis_state([0, 0]),
                        space.basis_state([0, 1])])
        b = space.span([space.basis_state([0, 0]),
                        space.basis_state([1, 0])])
        m = a.meet(b)
        assert m.dimension == 1
        assert m.contains_state(space.basis_state([0, 0]))

    def test_disjoint_meet_is_zero(self):
        space = make_space(1)
        a = space.span([space.basis_state([0])])
        b = space.span([space.basis_state([1])])
        assert a.meet(b).dimension == 0

    def test_meet_with_self(self, rng):
        space = make_space(2)
        a = space.span([space.from_amplitudes(rng.normal(size=4))
                        for _ in range(2)])
        assert a.meet(a).equals(a)

    def test_meet_matches_dense(self, rng):
        space = make_space(2)
        a = space.span([space.from_amplitudes(rng.normal(size=4))
                        for _ in range(3)])
        b = space.span([space.from_amplitudes(rng.normal(size=4))
                        for _ in range(2)])
        m = a.meet(b)
        # dense: intersection via projector kernel
        pa, pb = a.to_dense(), b.to_dense()
        values, vectors = np.linalg.eigh((np.eye(4) - pa)
                                         + (np.eye(4) - pb))
        kernel = vectors[:, values < 1e-9]
        assert m.dimension == kernel.shape[1]

    def test_non_distributivity_witness(self):
        """Quantum logic is not distributive — the classic witness:
        for non-orthogonal rays, a ^ (b v c) != (a ^ b) v (a ^ c)."""
        space = make_space(1)
        plus = space.from_amplitudes(np.array([1, 1]) / np.sqrt(2))
        a = space.span([plus])
        b = space.span([space.basis_state([0])])
        c = space.span([space.basis_state([1])])
        left = a.meet(b.join(c))       # a ^ H = a (dim 1)
        right = a.meet(b).join(a.meet(c))  # 0 v 0 = 0
        assert left.dimension == 1
        assert right.dimension == 0


class TestOverlap:
    def test_orthogonal_zero(self):
        space = make_space(1)
        a = space.span([space.basis_state([0])])
        b = space.span([space.basis_state([1])])
        assert a.overlap(b) == pytest.approx(0.0, abs=1e-9)

    def test_identical_equals_dimension(self):
        space = make_space(2)
        a = space.span([space.basis_state([0, 0]),
                        space.basis_state([1, 1])])
        assert a.overlap(a) == pytest.approx(2.0, abs=1e-8)

    def test_matches_dense_trace(self, rng):
        space = make_space(2)
        a = space.span([space.from_amplitudes(rng.normal(size=4))])
        b = space.span([space.from_amplitudes(rng.normal(size=4))])
        expect = np.trace(a.to_dense() @ b.to_dense()).real
        assert a.overlap(b) == pytest.approx(expect, abs=1e-8)

    def test_zero_subspace(self):
        space = make_space(1)
        a = space.span([space.basis_state([0])])
        assert a.overlap(space.zero_subspace()) == 0.0

    def test_cross_space_rejected(self):
        s1, s2 = make_space(1), make_space(1)
        a = s1.span([s1.basis_state([0])])
        b = s2.span([s2.basis_state([0])])
        with pytest.raises(SubspaceError):
            a.overlap(b)
