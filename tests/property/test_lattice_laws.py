"""BvN proposition algebra: lattice laws on random subspaces.

The subspace lattice is an *ortholattice* — orthocomplementation is an
involution and De Morgan holds — but it is **not** distributive (the
signature non-classicality of quantum logic).  These property tests
pin both facts down through the Proposition AST, on subspaces spanned
by hypothesis-generated amplitude vectors.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mc.logic import Atomic
from tests.helpers import make_space

_QUBITS = 2
_DIM = 2 ** _QUBITS

# amplitudes quantised to a coarse grid: keeps Gram-Schmidt residual
# norms far from the rank-decision tolerance, so the laws are tested
# on numerically unambiguous subspaces
_amplitude = st.integers(min_value=-2, max_value=2).map(float)
_vector = st.lists(_amplitude, min_size=_DIM, max_size=_DIM).filter(
    lambda v: any(abs(x) > 0 for x in v))
_vectors = st.lists(_vector, min_size=1, max_size=3)


def _subspace(space, vector_list):
    return space.span([space.from_amplitudes(np.array(v, dtype=complex))
                       for v in vector_list])


def _props(vector_lists):
    space = make_space(_QUBITS)
    props = [Atomic(_subspace(space, vectors), f"p{i}")
             for i, vectors in enumerate(vector_lists)]
    return space, props


class TestOrtholattice:
    @settings(max_examples=30, deadline=None)
    @given(_vectors)
    def test_orthocomplement_is_an_involution(self, vectors):
        space, (p,) = _props([vectors])
        assert (~~p).denote(space).equals(p.denote(space))

    @settings(max_examples=30, deadline=None)
    @given(_vectors)
    def test_complement_is_orthogonal_and_exhaustive(self, vectors):
        space, (p,) = _props([vectors])
        sub, comp = p.denote(space), (~p).denote(space)
        assert sub.overlap(comp) <= 1e-9
        assert sub.dimension + comp.dimension == _DIM

    @settings(max_examples=20, deadline=None)
    @given(_vectors, _vectors)
    def test_meet_absorption(self, va, vb):
        # p & (p | q) == p
        space, (p, q) = _props([va, vb])
        assert (p & (p | q)).denote(space).equals(p.denote(space))

    @settings(max_examples=20, deadline=None)
    @given(_vectors, _vectors)
    def test_join_absorption(self, va, vb):
        # p | (p & q) == p
        space, (p, q) = _props([va, vb])
        assert (p | (p & q)).denote(space).equals(p.denote(space))

    @settings(max_examples=20, deadline=None)
    @given(_vectors, _vectors)
    def test_de_morgan_holds_in_the_ortholattice(self, va, vb):
        # ~(p & q) == ~p | ~q — unlike distributivity, De Morgan
        # survives the passage to quantum logic
        space, (p, q) = _props([va, vb])
        assert (~(p & q)).denote(space).equals(
            (~p | ~q).denote(space))

    @settings(max_examples=20, deadline=None)
    @given(_vectors, _vectors)
    def test_meet_is_the_largest_lower_bound(self, va, vb):
        space, (p, q) = _props([va, vb])
        meet = (p & q).denote(space)
        assert p.denote(space).contains(meet)
        assert q.denote(space).contains(meet)

    @settings(max_examples=20, deadline=None)
    @given(_vectors, _vectors)
    def test_join_is_an_upper_bound(self, va, vb):
        space, (p, q) = _props([va, vb])
        join = (p | q).denote(space)
        assert join.contains(p.denote(space))
        assert join.contains(q.denote(space))


class TestNonClassicality:
    def test_distributivity_fails(self):
        # p ^ (q v r) != (p ^ q) v (p ^ r) for three rays of one qubit
        # plane: the textbook quantum-logic counterexample
        space = make_space(1)
        zero = Atomic(space.span([space.basis_state([0])]), "zero")
        one = Atomic(space.span([space.basis_state([1])]), "one")
        plus = Atomic(space.span([space.from_amplitudes(
            np.array([1, 1], dtype=complex) / np.sqrt(2))]), "plus")
        left = (zero & (one | plus)).denote(space)
        right = ((zero & one) | (zero & plus)).denote(space)
        assert left.dimension == 1      # |1> v |+> is the whole plane
        assert right.dimension == 0     # both meets are {0}
        assert not left.equals(right)

    def test_de_morgan_dual_also_holds(self):
        # ~(p | q) == ~p & ~q on the same counterexample rays
        space = make_space(1)
        zero = Atomic(space.span([space.basis_state([0])]), "zero")
        plus = Atomic(space.span([space.from_amplitudes(
            np.array([1, 1], dtype=complex) / np.sqrt(2))]), "plus")
        assert (~(zero | plus)).denote(space).equals(
            (~zero & ~plus).denote(space))

    def test_orthomodularity(self):
        # p <= q  =>  q == p v (q ^ ~p): the weakening of
        # distributivity that does survive
        space = make_space(2)
        p_sub = space.span([space.basis_state([0, 0])])
        q_sub = space.span([space.basis_state([0, 0]),
                            space.basis_state([0, 1])])
        p, q = Atomic(p_sub, "p"), Atomic(q_sub, "q")
        assert (p | (q & ~p)).denote(space).equals(q_sub)
