"""The Gram-Schmidt dependence rule of ``Subspace.add_state``.

A state ``s`` is dependent when its residual against the basis has
``|r| <= GS_EPS * max(1, |s|)``.  ``add_state`` reads the coefficients
``c_i = <v_i|s>`` and decides that first from them alone (the
Pythagorean estimate ``|s|^2 - sum |c_i|^2``).  Only a state that passes
that screen gets the classical Gram-Schmidt residual ``s - sum c_i v_i``
(``Subspace.residual``, from the same coefficients), and a second pass
when ``(eps + drift) * |s| / |r|`` exceeds ``GS_EPS**2``.
"""

import numpy as np
import pytest

from repro.config import GS_EPS, WEIGHT_TOL
from repro.mc.checker import ModelChecker
from repro.mc.config import CheckerConfig
from repro.subspace.subspace import Subspace
from repro.systems.models import build_model

from tests.helpers import make_space

E0 = np.array([1, 0, 0, 0], dtype=complex)
E1 = np.array([0, 1, 0, 0], dtype=complex)
E2 = np.array([0, 0, 1, 0], dtype=complex)

#: (amplitudes, kept?) against the basis ``{e0}``
PROBES = [
    (E0 + 1e-5 * E1, True),
    (E0 + 1e-9 * E1, False),
    (1e3 * (E0 + 1e-6 * E1), True),
    (1e3 * (E0 + 1e-12 * E1), False),
    (1e3 * (E0 + 1e-9 * E1), False),
    (1e-9 * E1, False),
    (E1, True),
]


@pytest.fixture
def full_steps(monkeypatch):
    """The basis dimension at each full (residual-building) step."""
    calls = []
    residual = Subspace.residual

    def spy(self, state, coefficients=None):
        calls.append(self.dimension)
        return residual(self, state, coefficients)

    monkeypatch.setattr(Subspace, "residual", spy)
    return calls


def e0_subspace():
    space = make_space(2)
    return space.span([space.from_amplitudes(E0)])


class TestDependenceRule:
    def test_small_component_is_a_new_direction(self, full_steps):
        sub = e0_subspace()
        added = sub.add_state(sub.space.from_amplitudes(E0 + 1e-5 * E1))
        assert added is not None
        assert sub.dimension == 2
        assert np.allclose(added.to_numpy().reshape(-1), E1, atol=1e-9)
        # |s| / |r| = 1e5 is above GS_EPS**2 / eps: a second pass
        assert full_steps == [1, 1]

    def test_tiny_component_is_screened_out(self, full_steps):
        sub = e0_subspace()
        assert sub.add_state(
            sub.space.from_amplitudes(E0 + 1e-9 * E1)) is None
        assert sub.dimension == 1
        assert full_steps == []

    def test_large_state_is_judged_relative_to_its_norm(self, full_steps):
        sub = e0_subspace()
        added = sub.add_state(
            sub.space.from_amplitudes(1e3 * (E0 + 1e-6 * E1)))
        assert added is not None
        assert full_steps == [1, 1]

    def test_large_state_with_dependent_residual_is_screened_out(
            self, full_steps):
        # residual norms 1e-6 and 1e-9: the first is above the absolute
        # floor GS_EPS but below GS_EPS * |s| = 1e-4
        sub = e0_subspace()
        for ratio in (1e-9, 1e-12):
            assert sub.add_state(sub.space.from_amplitudes(
                1e3 * (E0 + ratio * E1))) is None
        assert sub.dimension == 1
        assert full_steps == []

    def test_absolute_floor_for_small_states(self, full_steps):
        sub = e0_subspace()
        assert sub.add_state(sub.space.from_amplitudes(1e-9 * E1)) is None
        empty = sub.space.zero_subspace()
        assert empty.add_state(sub.space.from_amplitudes(1e-9 * E1)) is None
        assert empty.add_state(
            sub.space.from_amplitudes(np.zeros(4, dtype=complex))) is None
        assert sub.dimension == 1 and empty.dimension == 0
        assert full_steps == []

    def test_empty_basis_keeps_the_normalised_state(self, full_steps):
        space = make_space(2)
        sub = space.zero_subspace()
        added = sub.add_state(space.from_amplitudes(3 * E1))
        assert np.allclose(added.to_numpy().reshape(-1), E1, atol=1e-12)
        assert full_steps == []

    def test_second_pass_keeps_the_screen_on(self, full_steps):
        # e1 is kept from a residual 1e-6 of its state; one pass would
        # leave the basis orthonormal only to ~1e-10, the second pass
        # to ~eps, so the estimate is still trusted
        sub = e0_subspace()
        assert sub.add_state(
            sub.space.from_amplitudes(E0 + 1e-6 * E1)) is not None
        assert full_steps == [1, 1]
        assert sub.add_state(sub.space.from_amplitudes(E0 + E1)) is None
        assert sub.copy().add_state(sub.space.from_amplitudes(E1)) is None
        assert full_steps == [1, 1]

    def test_screen_is_off_once_the_basis_drifts(self, full_steps):
        # a basis known to be off by more than GS_EPS**2 takes the full
        # step, and its copies inherit that
        sub = e0_subspace()
        sub.add_state(sub.space.from_amplitudes(E1))
        drifted = Subspace._from_orthonormal(sub.space, sub.basis, 1e-13)
        assert drifted.add_state(sub.space.from_amplitudes(E0 + E1)) is None
        assert full_steps == [1, 2]
        assert drifted.copy().add_state(
            sub.space.from_amplitudes(E1)) is None
        assert full_steps == [1, 2, 2]
        # an empty tail has nothing to be off against
        assert drifted.tail(2).add_state(
            sub.space.from_amplitudes(np.zeros(4, dtype=complex))) is None
        assert full_steps == [1, 2, 2]

    def test_second_pass_bound_counts_the_drift(self, full_steps):
        # |s| / |r| = 14: eps alone stays under GS_EPS**2, a basis
        # declared off by 1e-15 does not
        sub = e0_subspace()
        sub.add_state(sub.space.from_amplitudes(E1))
        state = sub.space.from_amplitudes(E0 + E1 + 0.1 * E2)
        fresh = Subspace._from_orthonormal(sub.space, list(sub.basis), 0.0)
        drifted = Subspace._from_orthonormal(sub.space, list(sub.basis),
                                             1e-15)
        full_steps.clear()
        assert fresh.add_state(state) is not None
        assert full_steps == [2]
        assert drifted.add_state(state) is not None
        assert full_steps == [2, 2, 2]

    @pytest.mark.parametrize("amplitudes,kept", PROBES)
    def test_probe_decisions(self, amplitudes, kept):
        sub = e0_subspace()
        added = sub.add_state(sub.space.from_amplitudes(amplitudes))
        assert (added is not None) == kept

    @pytest.mark.parametrize("amplitudes,kept", PROBES)
    def test_add_state_agrees_with_contains_state(self, amplitudes, kept):
        sub = e0_subspace()
        probe = sub.space.from_amplitudes(
            amplitudes / np.linalg.norm(amplitudes))
        contained = sub.contains_state(probe)
        assert (sub.add_state(probe) is None) == contained


class TestNearDependentStates:
    """States at ``|s| / |r|`` from 10 to 1e5 against a dense basis.

    One pass leaves the kept vector off the basis by about ``(eps +
    drift) * |s| / |r|``; past ``GS_EPS**2`` a second pass runs.  On
    dense random vectors the diagrams resolve normalised weights only
    to ``WEIGHT_TOL``: a second-pass correction below that snaps back
    onto the first pass's weights, so the kept vector is checked
    against ``WEIGHT_TOL``, which one pass misses from ``|s| / |r|``
    of about 1e4 on.
    """

    @pytest.mark.parametrize("ratio,passes", [(10, 1), (50, 2), (1e3, 2),
                                              (1e5, 2)])
    def test_kept_vector_is_orthonormal(self, full_steps, ratio, passes):
        rng = np.random.default_rng(11)
        space = make_space(3)
        sub = space.span([space.from_amplitudes(
            rng.normal(size=8) + 1j * rng.normal(size=8))
            for _ in range(3)])
        q = np.array([v.to_numpy().reshape(-1) for v in sub.basis]).T
        inside = q @ (rng.normal(size=3) + 1j * rng.normal(size=3))
        outside = rng.normal(size=8) + 1j * rng.normal(size=8)
        outside -= q @ (q.conj().T @ outside)
        outside *= np.linalg.norm(inside) / (ratio * np.linalg.norm(outside))
        amplitudes = inside + outside
        amplitudes /= np.linalg.norm(amplitudes)
        bound = ((np.finfo(float).eps + sub._drift)
                 * np.linalg.norm(amplitudes) / np.linalg.norm(outside))
        assert (bound > GS_EPS ** 2) == (passes == 2)
        full_steps.clear()
        added = sub.add_state(space.from_amplitudes(amplitudes))
        assert added is not None
        assert full_steps == [3] * passes
        vector = added.to_numpy().reshape(-1)
        assert np.max(np.abs(q.conj().T @ vector)) <= WEIGHT_TOL
        assert abs(np.linalg.norm(vector) - 1) <= GS_EPS ** 2
        direction = outside / np.linalg.norm(outside)
        assert np.allclose(vector, direction, atol=1e-9)


def qrw5():
    return build_model("qrw", 5, noise_probability=0.1, steps=2)


def gram_deviation(subspace):
    vectors = np.array([v.to_numpy().reshape(-1)
                        for v in subspace.basis]).T
    gram = vectors.conj().T @ vectors
    return np.max(np.abs(gram - np.eye(len(gram))))


class TestFixpointBases:
    def test_forward_fixpoint_basis_is_orthonormal(self):
        trace = ModelChecker(qrw5(), CheckerConfig()).reachable()
        assert trace.subspace.dimension > 1
        assert gram_deviation(trace.subspace) <= 1e-12

    @pytest.mark.parametrize("steps", [1, 2])
    def test_qrw6_reach_basis_is_orthonormal(self, steps):
        # steps=2 is the benchmark's dim-31 walk, steps=1 the CLI's
        # default, whose 64 vectors fill the space
        qts = build_model("qrw", 6, noise_probability=0.1, steps=steps)
        trace = ModelChecker(qts, CheckerConfig()).reachable()
        assert trace.subspace.dimension > 1
        assert gram_deviation(trace.subspace) <= GS_EPS ** 2


def random_amplitudes(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def off_span(q, rng):
    """A random unit vector orthogonal to the columns of ``q``."""
    w = random_amplitudes(rng, q.shape[0])
    for _ in range(2):
        w -= q @ (q.conj().T @ w)
    return w / np.linalg.norm(w)


class TestMeasuredDrift:
    """A basis grown by near-dependent steps is off by about 1e-13.

    Each such step runs a second pass, whose kept vector is only as
    orthogonal as the weight table resolves, above the ``GS_EPS**2`` the
    Pythagorean screen assumes.  The drift must record that deviation,
    so the screen switches off and states just outside ``GS_EPS`` of the
    span are kept, not rejected on a stale estimate.
    """

    @pytest.mark.parametrize("num_qubits,vectors,seed",
                             [(4, 4, 12), (5, 6, 13)])
    def test_states_near_the_threshold_are_judged_right(
            self, num_qubits, vectors, seed):
        rng = np.random.default_rng(seed)
        space = make_space(num_qubits)
        size = 2 ** num_qubits
        sub = space.span([space.from_amplitudes(random_amplitudes(rng, size))
                          for _ in range(vectors)])
        for ratio in (1e3, 1e4, 1e5, 3e4, 1e5, 1e4):
            q = np.array([v.to_numpy().reshape(-1) for v in sub.basis]).T
            inside = q @ random_amplitudes(rng, q.shape[1])
            inside /= np.linalg.norm(inside)
            assert sub.add_state(space.from_amplitudes(
                inside + off_span(q, rng) / ratio)) is not None
        assert gram_deviation(sub) > GS_EPS ** 2
        assert gram_deviation(sub) <= 2 * sub._drift

        q, _ = np.linalg.qr(
            np.array([v.to_numpy().reshape(-1) for v in sub.basis]).T)
        misjudged = []
        for multiple in (0.5, 0.8, 1.3, 2, 5):
            for _ in range(8):
                inside = q @ random_amplitudes(rng, q.shape[1])
                amplitudes = (inside / np.linalg.norm(inside)
                              + multiple * GS_EPS * off_span(q, rng))
                kept = sub.copy().add_state(
                    space.from_amplitudes(amplitudes)) is not None
                if kept != (multiple > 1):
                    misjudged.append(multiple)
        assert misjudged == []


class TestNoiseFloor:
    """Every dependent image state must be caught by the screen.

    A change that raises weight noise above ``GS_EPS**2 / 10`` on the
    estimate, or that lets a rejection fall through to the full step,
    fails here instead of silently taking the slow path.
    """

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_rejections_are_screened(self, monkeypatch, direction):
        records = []
        add_state = Subspace.add_state
        residual = Subspace.residual

        def spy_add_state(self, state, tol=GS_EPS):
            norm2 = self._norm2(state)
            estimate = norm2 - sum(abs(c) ** 2
                                   for c in self.coefficients(state))
            record = {"norm2": norm2, "estimate": estimate, "full": False}
            records.append(record)
            added = add_state(self, state, tol)
            record["added"] = added is not None
            return added

        def spy_residual(self, state, coefficients=None):
            records[-1]["full"] = True
            return residual(self, state, coefficients)

        monkeypatch.setattr(Subspace, "add_state", spy_add_state)
        monkeypatch.setattr(Subspace, "residual", spy_residual)
        trace = ModelChecker(
            qrw5(), CheckerConfig(direction=direction)).reachable()
        assert trace.converged

        rejected = [r for r in records if not r["added"]]
        assert rejected, "the fixpoint made no dependent image state"
        assert not [r for r in rejected if r["full"]]
        worst = max(abs(r["estimate"]) / r["norm2"]
                    for r in rejected if r["norm2"] > 0)
        assert worst <= GS_EPS ** 2 / 10
