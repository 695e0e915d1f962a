"""The screened Gram-Schmidt step against the unscreened one.

``Subspace.add_state`` rejects a dependent state from its coefficients
alone and builds a classical Gram-Schmidt residual, re-orthogonalised
under its loss bound, only for states it keeps.  Whatever the screen
decides must be what plain modified Gram-Schmidt decides under the same
rule ``|r| <= GS_EPS * max(1, |s|)``, and a kept state must become the
basis vector that an unscreened step on the same basis makes.

The unscreened oracle also grows a basis of its own, and its decisions
must match step by step.  Its vectors are not compared with the
screened ones: bases that differ by ``d`` keep a state with residual
``|r|`` as vectors about ``d * |s| / |r|`` apart, so a near-dependent
state amplifies the oracle's own rounding, and its span can move off
the screened one by far more than the threshold.  Its decisions are
compared while the two spans agree to ``GS_EPS / 10``, and after that
only the same-basis step is.  The screened basis is held to the identity
instead, through its dense Gram matrix ``G``: while the subspace
screens (its drift, with the rounding of the walks that measured it,
within ``GS_EPS**2``), ``max |G - I|`` must be within ``GS_EPS**2``
too.  A basis may end up further off, since a
second pass cannot move a weight by less than ``WEIGHT_TOL`` of the
first pass's; the drift must then say so, and ``max |G - I|`` may be
at most twice the drift.
"""

import numpy as np
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from repro.config import GS_EPS

from tests.helpers import make_space


#: ``(|s| / |r|)**2`` above which a residual gets a second pass: past
#: ``|s| / |r| = GS_EPS**2 / eps`` (about 45) one pass would leave the
#: kept vector off by more than ``GS_EPS**2``
EPS = np.finfo(float).eps
SECOND_PASS_RATIO2 = (GS_EPS ** 2 / EPS) ** 2


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


def gram_deviation(subspace):
    """``max |G - I|`` for the dense Gram matrix ``G`` of the basis."""
    if not subspace.basis:
        return 0.0
    q = np.array([dense(v) for v in subspace.basis]).T
    return np.max(np.abs(q.conj().T @ q - np.eye(q.shape[1])))


def span_gap(subspace, other):
    """The largest distance of a unit vector in the span of ``subspace``
    from the span of ``other``, computed densely."""
    if not subspace.basis:
        return 0.0
    q = np.array([dense(v) for v in subspace.basis]).T
    p = np.array([dense(v) for v in other.basis]).T.reshape(len(q), -1)
    return np.linalg.norm(q - p @ (p.conj().T @ q), 2)


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
# the Pythagorean estimate on that basis reads a kept state as dependent.
# Its second pass leaves it 4.5e-14 off, as close as the weight table
# lets it get, so the screen must switch off
@example(num_qubits=3, seed=0, steps=[(0.0, 0.0), (-5.0, 0.0), (0.0, 0.0),
                                      (0.0, 0.0), (-5.0, 0.0)])
# two vectors kept from residuals ~1e-5 and ~1e-4 of their states fill
# the basis; without a second pass the oracle's skewed basis left a
# residual of 5.75e-6 where the screened step met a full basis
@example(num_qubits=2, seed=0, steps=[(0.0, 0.0), (0.0, 0.0), (-5.0, 0.0),
                                      (-4.0, 0.0), (0.0, 0.0)])
# states kept from residuals ~1e-5 of their states: an oracle basis of
# its own drifts to 1.5e-13 off orthogonal, and its kept vector lands
# 1.4e-6 away from the screened one
@example(num_qubits=4, seed=0, steps=[(0.0, 0.0), (0.0, 0.0), (-5.0, 0.0),
                                      (-5.0, 0.0)])
@example(num_qubits=3, seed=0, steps=[(0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                                      (-5.0, 0.0), (-4.5, 0.5)])
# five states kept from residuals about a quarter of their norms: each
# inherits the basis's deviation times |s| / |r|, and the basis ends
# 1.1e-14 off the identity; a drift of rounding losses alone read 9.2e-16
@example(num_qubits=4, seed=0, steps=[(-1.6676811721162572e-06, 0.0),
                                      (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                                      (0.0, 0.0)])
# the oracle's own basis, grown from residuals 1e-4 and 1e-5 of their
# states, leaves the last state 3.4e-7 off its span, against a threshold
# of 2.4e-7, while the state is 1e-8 off the screened basis; from
# residuals 1e-5 and 1e-5 its span moves 1.3e-6 off the screened one,
# and the last state is 2.5e-6 off it
@example(num_qubits=3, seed=0, steps=[(0.0, 0.0), (0.0, 0.0), (-4.0, 0.0),
                                      (-5.0, 0.0), (-8.0, 0.0)])
@example(num_qubits=3, seed=0, steps=[(0.0, 0.0), (0.0, 0.0), (-5.0, 0.0),
                                      (-5.0, 0.0), (-8.0, 0.0)])
# a second pass leaves the basis 1.004e-14 off the identity where the
# inner walks measure 9.97e-15: the screen allows for their rounding
@example(num_qubits=1, seed=294, steps=[(0.0, 0.0), (-8.0, 0.0), (0.0, 2.0)])
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
        # a span within GS_EPS / 10 of the screened one puts every state
        # on the same side of the threshold as the screened basis does
        if (reference is not None
                and span_gap(screened, reference) > GS_EPS / 10):
            event("oracle span diverged")
            assert screened.dimension == reference.dimension
            reference = None

        event("kept" if residual > threshold else "dependent")
        if threshold > GS_EPS:
            event("relative rule")
        oracle = screened.copy()
        got = screened.add_state(state)
        step = unscreened_add_state(oracle, state)
        if reference is not None:
            want = unscreened_add_state(reference, state)
            assert (got is None) == (want is None)
        assert (got is None) == (step is None)
        assert (got is None) == (residual <= threshold)
        if got is not None:
            assert np.allclose(dense(got), dense(step), atol=1e-9)
        deviation = gram_deviation(screened)
        if screened.screens():
            assert deviation <= GS_EPS ** 2
        else:
            event("screen off")
            assert deviation <= 2 * screened._drift
    if reference is not None:
        assert screened.dimension == reference.dimension
