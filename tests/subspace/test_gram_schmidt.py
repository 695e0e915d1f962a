"""The Gram-Schmidt dependence rule of ``Subspace.add_state``.

A state ``s`` is dependent when its residual against the basis has
``|r| <= GS_EPS * max(1, |s|)``.  ``add_state`` decides that first from
contractions alone (the Pythagorean estimate ``|s|^2 - sum |<v_i|s>|^2``)
and builds the modified Gram-Schmidt residual (``Subspace._residual``)
only for states that pass that screen.
"""

import numpy as np
import pytest

from repro.config import GS_EPS
from repro.mc.checker import ModelChecker
from repro.mc.config import CheckerConfig
from repro.subspace.subspace import Subspace
from repro.systems.models import build_model

from tests.helpers import make_space

E0 = np.array([1, 0, 0, 0], dtype=complex)
E1 = np.array([0, 1, 0, 0], dtype=complex)

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
    residual = Subspace._residual

    def spy(self, state):
        calls.append(self.dimension)
        return residual(self, state)

    monkeypatch.setattr(Subspace, "_residual", spy)
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
        assert full_steps == [1]

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
        assert full_steps == [1]

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

    def test_screen_is_off_after_a_near_dependent_vector(self, full_steps):
        # e1 is kept from a residual 1e-6 of its state, so the basis is
        # orthonormal only to ~1e-10 and the estimate is not trusted
        sub = e0_subspace()
        assert sub.add_state(
            sub.space.from_amplitudes(E0 + 1e-6 * E1)) is not None
        assert sub.add_state(sub.space.from_amplitudes(E0 + E1)) is None
        assert full_steps == [1, 2]
        assert sub.copy().add_state(sub.space.from_amplitudes(E1)) is None
        assert full_steps == [1, 2, 2]
        # an empty tail has nothing to be off against
        assert sub.tail(2).add_state(
            sub.space.from_amplitudes(np.zeros(4, dtype=complex))) is None
        assert full_steps == [1, 2, 2]

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


def qrw5():
    return build_model("qrw", 5, noise_probability=0.1, steps=2)


class TestFixpointBases:
    def test_forward_fixpoint_basis_is_orthonormal(self):
        trace = ModelChecker(qrw5(), CheckerConfig()).reachable()
        vectors = np.array([v.to_numpy().reshape(-1)
                            for v in trace.subspace.basis]).T
        gram = vectors.conj().T @ vectors
        assert trace.subspace.dimension > 1
        assert np.max(np.abs(gram - np.eye(len(gram)))) <= 1e-12


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
        residual = Subspace._residual

        def spy_add_state(self, state, tol=GS_EPS):
            norm2 = self._norm2(state)
            estimate = norm2 - sum(abs(self._coefficient(i, state)) ** 2
                                   for i in range(self.dimension))
            record = {"norm2": norm2, "estimate": estimate, "full": False}
            records.append(record)
            added = add_state(self, state, tol)
            record["added"] = added is not None
            return added

        def spy_residual(self, state):
            records[-1]["full"] = True
            return residual(self, state)

        monkeypatch.setattr(Subspace, "add_state", spy_add_state)
        monkeypatch.setattr(Subspace, "_residual", spy_residual)
        trace = ModelChecker(
            qrw5(), CheckerConfig(direction=direction)).reachable()
        assert trace.converged

        rejected = [r for r in records if not r["added"]]
        assert rejected, "the fixpoint made no dependent image state"
        assert not [r for r in rejected if r["full"]]
        worst = max(abs(r["estimate"]) / r["norm2"]
                    for r in rejected if r["norm2"] > 0)
        assert worst <= GS_EPS ** 2 / 10
