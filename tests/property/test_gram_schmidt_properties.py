"""The screened Gram-Schmidt step against the unscreened one.

``Subspace.add_state`` rejects a dependent state from contractions
alone and builds a residual only for states it keeps.  Whatever the
screen decides must be what plain modified Gram-Schmidt decides under
the same rule ``|r| <= GS_EPS * max(1, |s|)``, and a kept state must
become the same basis vector.
"""

import numpy as np
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from repro.config import GS_EPS

from tests.helpers import make_space


#: ``(|s| / |r|)**2`` above which a residual gets a second pass: past
#: ``|s| / |r| = GS_EPS**2 / eps`` (about 45) one pass would leave the
#: kept vector off by more than ``GS_EPS**2``
SECOND_PASS_RATIO2 = (GS_EPS ** 2 / np.finfo(float).eps) ** 2


def unscreened_add_state(sub, state, tol=GS_EPS):
    """Modified Gram-Schmidt with no screen: always build ``r``.

    Every inner product is spelled as a conjugate diagram contracted
    with the state, independent of the scalar kernel walk that
    ``Subspace`` uses.  A residual much shorter than its state gets a
    second pass, as in ``Subspace.add_state``.
    """
    kets = sub.space.kets

    def norm2_of(vector):
        return abs(vector.conj().contract(vector, kets).root.weight)

    def one_pass(residual):
        for vector in sub.basis:
            coefficient = vector.conj().contract(residual, kets).root.weight
            if coefficient != 0:
                residual = residual + vector.scaled(-coefficient)
        return residual

    norm2 = norm2_of(state)
    floor = tol * tol * max(1.0, norm2)
    residual = one_pass(state)
    residual_norm2 = norm2_of(residual)
    if floor < residual_norm2 and norm2 > SECOND_PASS_RATIO2 * residual_norm2:
        residual = one_pass(residual)
        residual_norm2 = norm2_of(residual)
    if residual_norm2 <= floor:
        return None
    vector = residual.scaled(1.0 / residual_norm2 ** 0.5)
    sub.basis.append(vector)
    return vector


def dense(vector):
    return vector.to_numpy().reshape(-1)


def true_residual(basis, amplitudes):
    """``|s - Q Q^H s|`` computed densely."""
    if not basis:
        return np.linalg.norm(amplitudes)
    q = np.array(basis).T
    return np.linalg.norm(amplitudes - q @ (q.conj().T @ amplitudes))


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.lists(st.tuples(st.floats(min_value=-12, max_value=0),
                          st.floats(min_value=-1, max_value=2)),
                min_size=1, max_size=5))
# a basis vector kept from a residual 1e-5 of its state is off by ~1e-11;
# the Pythagorean estimate on that basis reads a kept state as dependent
@example(num_qubits=3, seed=0, steps=[(0.0, 0.0), (-5.0, 0.0), (0.0, 0.0),
                                      (0.0, 0.0), (-5.0, 0.0)])
# two vectors kept from residuals ~1e-5 and ~1e-4 of their states fill
# the basis; without a second pass the oracle's skewed basis left a
# residual of 5.75e-6 where the screened step met a full basis
@example(num_qubits=2, seed=0, steps=[(0.0, 0.0), (0.0, 0.0), (-5.0, 0.0),
                                      (-4.0, 0.0), (0.0, 0.0)])
def test_screen_matches_unscreened_step(num_qubits, seed, steps):
    space = make_space(num_qubits)
    screened = space.zero_subspace()
    reference = space.zero_subspace()
    rng = np.random.default_rng(seed)
    dim = 2 ** num_qubits
    for perturbation_exp, scale_exp in steps:
        basis = [dense(v) for v in screened.basis]
        direction = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        amplitudes = 10.0 ** perturbation_exp * direction / np.linalg.norm(
            direction)
        for vector in basis:
            amplitudes = amplitudes + 10.0 ** scale_exp * complex(
                rng.normal(), rng.normal()) * vector
        state = space.from_amplitudes(amplitudes)
        stored = dense(state)
        threshold = GS_EPS * max(1.0, np.linalg.norm(stored))
        residual = true_residual(basis, stored)
        assume(not threshold / 10 < residual < threshold * 10)

        event("kept" if residual > threshold else "dependent")
        if threshold > GS_EPS:
            event("relative rule")
        got = screened.add_state(state)
        want = unscreened_add_state(reference, state)
        assert (got is None) == (want is None)
        assert (got is None) == (residual <= threshold)
        if got is not None:
            assert np.allclose(dense(got), dense(want), atol=1e-9)
    assert screened.dimension == reference.dimension
