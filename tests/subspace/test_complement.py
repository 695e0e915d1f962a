"""Householder completion of orthocomplements and adoption of
orthonormal bases, against the dense oracle and the §IV.A reference."""

import numpy as np
import pytest

from repro.mc.logic import Atomic, Not
from repro.mc.reachability import subspace_fingerprint
from repro.subspace.projector import basis_decompose
from repro.subspace.subspace import Subspace
from repro.systems import models
from repro.tdd import construction as tc
from repro.tdd.slicing import largest_entry

from tests.helpers import make_space, random_tensor


def random_subspace(space, rng, dimension):
    """The span of ``dimension`` random dense complex vectors."""
    size = space.dimension
    return space.span([space.from_amplitudes(rng.normal(size=size)
                                             + 1j * rng.normal(size=size))
                       for _ in range(dimension)])


def normalized(state):
    """``state`` scaled to unit norm."""
    return state.scaled(1.0 / state.norm())


def dense_projector(matrix):
    """The projector onto the column span of ``matrix`` (SVD-closed)."""
    if matrix.shape[1] == 0:
        return np.zeros((matrix.shape[0],) * 2, dtype=complex)
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    u = u[:, s > 1e-9]
    return u @ u.conj().T


def basis_matrix(subspace):
    columns = [v.to_numpy().reshape(-1) for v in subspace.basis]
    if not columns:
        return np.zeros((subspace.space.dimension, 0), dtype=complex)
    return np.column_stack(columns)


def dimensions(num_qubits):
    full = 2 ** num_qubits
    return sorted({d for d in (0, 1, 2, 3, full - 1, full) if d <= full})


CASES = [(n, d) for n in range(1, 6) for d in dimensions(n)]


@pytest.mark.parametrize("num_qubits,dimension", CASES)
def test_complement_matches_dense_and_the_reference(num_qubits, dimension,
                                                    rng):
    space = make_space(num_qubits)
    size = space.dimension
    sub = random_subspace(space, rng, dimension)
    comp = sub.complement()
    assert comp.dimension == size - dimension
    basis = basis_matrix(comp)
    # orthonormal, orthogonal to S, and together they span everything
    assert np.allclose(basis.conj().T @ basis, np.eye(comp.dimension),
                       atol=1e-12)
    expected = np.eye(size) - sub.to_dense()
    assert np.allclose(dense_projector(basis), expected, atol=1e-10)
    assert comp._drift <= 1e-14
    # the projector deflation of Section IV.A spans the same space
    identity = tc.identity(space.manager, list(space.bras),
                           list(space.kets))
    reference = basis_decompose(space, identity - sub.projector)
    assert reference.equals(comp)


@pytest.mark.parametrize("num_qubits", [2, 3, 4])
def test_meet_and_negation_match_dense(num_qubits, rng):
    space = make_space(num_qubits)
    size = space.dimension
    a = random_subspace(space, rng, size // 2 + 1)
    b = random_subspace(space, rng, size // 2)
    pa, pb = a.to_dense(), b.to_dense()
    values, vectors = np.linalg.eigh(2 * np.eye(size) - pa - pb)
    meet = dense_projector(vectors[:, values < 1e-9])
    assert np.allclose(a.meet(b).to_dense(), meet, atol=1e-8)
    negated = Not(Atomic(a, "a")).denote(space)
    assert np.allclose(negated.to_dense(), np.eye(size) - pa, atol=1e-10)


def test_aligned_target_completes_to_exact_basis_states():
    space = make_space(3)
    target = space.span([space.basis_state([0, 1, 1]),
                         space.basis_state([1, 0, 0]).scaled(1j)])
    comp = target.complement()
    kept = [bits for bits in np.ndindex(2, 2, 2)
            if bits not in ((0, 1, 1), (1, 0, 0))]
    assert len(comp.basis) == len(kept)
    for vector, bits in zip(comp.basis, kept):
        assert vector.same_as(space.basis_state(list(bits)))
    assert comp._drift == 0.0


@pytest.mark.parametrize("build,atom,digest", [
    (lambda: models.qrw_qts(5), "start",
     "76b0a7624e4f9ed11985f0234fac086f505673c992a2ff1e709ccf61ac90d45c"),
    (models.bitflip_qts, "codeword",
     "5689f0791e1a0ff32e704d64958027246962ca6589f2c967b1f7bb6165166c7a"),
])
def test_aligned_model_complements_keep_their_store_keys(build, atom,
                                                         digest):
    # the backward AG event set keys the fixpoint store: these are the
    # fingerprints the projector deflation produced
    target = build().named_subspaces[atom]
    assert subspace_fingerprint(target.complement()) == digest


def test_complement_builds_no_projector(monkeypatch, rng):
    space = make_space(3)
    sub = random_subspace(space, rng, 3)

    def refuse(self):
        raise AssertionError("complement materialised a projector")

    monkeypatch.setattr(Subspace, "projector", property(refuse))
    assert sub.complement().dimension == 5


class TestAdopt:
    def test_orthonormal_vectors_are_kept_as_they_are(self, monkeypatch,
                                                      rng):
        space = make_space(3)
        basis = random_subspace(space, rng, 4).basis

        def refuse(self, state, tol=None):
            raise AssertionError("an orthonormal basis was re-spanned")

        monkeypatch.setattr(Subspace, "add_state", refuse)
        adopted = space.adopt(basis)
        assert adopted.basis == basis
        assert 0.0 <= adopted._drift <= 1e-14

    @pytest.mark.parametrize("damage", ["scaled", "duplicated", "skewed"])
    def test_other_input_is_spanned(self, damage, rng):
        space = make_space(3)
        basis = list(random_subspace(space, rng, 3).basis)
        if damage == "scaled":
            basis[1] = basis[1].scaled(2)
        elif damage == "duplicated":
            basis[2] = basis[0]
        else:
            basis[1] = normalized(basis[1] + basis[0].scaled(1e-6))
        adopted = space.adopt(basis)
        assert adopted.equals(space.span(basis))
        assert adopted.dimension == (2 if damage == "duplicated" else 3)
        gram = basis_matrix(adopted).conj().T @ basis_matrix(adopted)
        assert np.allclose(gram, np.eye(adopted.dimension), atol=1e-12)


def test_largest_entry_finds_the_dense_argmax(rng):
    space = make_space(4)
    for _ in range(20):
        amplitudes = random_tensor(rng, 4).reshape(-1)
        state = space.from_amplitudes(amplitudes)
        assignment, entry = largest_entry(state.root)
        levels = [space.manager.level(k) for k in space.kets]
        bits = tuple(assignment.get(level, 0) for level in levels)
        assert abs(entry) == pytest.approx(np.max(np.abs(amplitudes)))
        assert entry == pytest.approx(state.value(
            dict(zip(space.kets, bits))))
    assert largest_entry(tc.zero(space.manager, space.kets).root) is None
