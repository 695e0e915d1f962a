"""The basis-only subspace: modified Gram-Schmidt and the lazy projector."""

import functools

import numpy as np
import pytest

from repro.mc.checker import ModelChecker
from repro.mc.config import CheckerConfig
from repro.mc.reachability import reachable_space
from repro.subspace.subspace import Subspace
from repro.systems import models
from repro.systems.noise import noisy_operation
from repro.systems.qts import QuantumTransitionSystem

from tests.helpers import dense_reach_oracle, make_space, subspace_to_dense


def noisy_ghz(num_qubits: int = 3) -> QuantumTransitionSystem:
    """GHZ preparation with a depolarizing channel after the first gate."""
    circuit = models.ghz_qts(num_qubits).operations[0].kraus_circuits[0]
    op = noisy_operation("g", circuit, position=1, qubit=0,
                         channel="depolarizing", parameter=0.25)
    qts = QuantumTransitionSystem(num_qubits, [op], name="noisy_ghz")
    qts.set_initial_basis_states([[0] * num_qubits])
    return qts


FAMILIES = {
    "qrw3": lambda: models.qrw_qts(3, 0.2),
    "qrw4": lambda: models.qrw_qts(4, 0.1),
    "bitflip": models.bitflip_qts,
    "noisy_ghz": noisy_ghz,
}
DIRECTIONS = ("forward", "backward")
CASES = [(family, direction) for family in FAMILIES
         for direction in DIRECTIONS]


@functools.lru_cache(maxsize=None)
def fixpoints(family: str, direction: str):
    """The tdd and dense reachable spaces of one case (computed once)."""
    tdd = reachable_space(FAMILIES[family](),
                          CheckerConfig(method="basic",
                                        direction=direction))
    dense = reachable_space(FAMILIES[family](),
                            CheckerConfig(backend="dense",
                                          direction=direction))
    return tdd, dense


def basis_matrix(subspace: Subspace) -> np.ndarray:
    return np.column_stack([v.to_numpy().reshape(-1)
                            for v in subspace.basis])


@pytest.mark.parametrize("family,direction", CASES)
def test_basis_is_orthonormal(family, direction):
    tdd, _ = fixpoints(family, direction)
    basis = basis_matrix(tdd.subspace)
    gram = basis.conj().T @ basis
    assert np.max(np.abs(gram - np.eye(tdd.dimension))) <= 1e-9


@pytest.mark.parametrize("family,direction", CASES)
def test_projector_matches_dense_backend(family, direction):
    tdd, dense = fixpoints(family, direction)
    oracle, ladder = dense_reach_oracle(FAMILIES[family](), direction)
    assert tdd.dimensions == dense.dimensions == ladder
    expected = oracle.projector()
    assert np.allclose(tdd.subspace.to_dense(), expected, atol=1e-8)
    assert np.allclose(subspace_to_dense(dense.subspace).projector(),
                       expected, atol=1e-8)


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_fixpoint_never_builds_a_projector(monkeypatch, direction):
    def refuse(self):
        raise AssertionError("a fixpoint materialised a projector")

    monkeypatch.setattr(Subspace, "projector", property(refuse))
    trace = reachable_space(models.qrw_qts(4, 0.1),
                            CheckerConfig(method="basic",
                                          direction=direction))
    assert trace.dimension > 1
    assert trace.subspace._projector is None


def test_backward_always_check_never_builds_a_projector(monkeypatch):
    # the event set of AG is the complement of the target; completing
    # its basis by Householder reflections needs no I - P
    def refuse(self):
        raise AssertionError("the check materialised a projector")

    monkeypatch.setattr(Subspace, "projector", property(refuse))
    result = ModelChecker(models.qrw_qts(5),
                          CheckerConfig(method="basic",
                                        direction="backward")).check(
        "AG start")
    assert not result.holds
    assert result.dimensions == [31, 32, 32]


def random_states(space, rng, count):
    size = 2 ** space.num_qubits
    return [space.from_amplitudes(rng.normal(size=size)
                                  + 1j * rng.normal(size=size))
            for _ in range(count)]


def test_projector_extends_after_add_state(rng):
    space = make_space(3)
    a, b, c = random_states(space, rng, 3)
    sub = space.span([a, b])
    assert sub._projector is None
    before = sub.projector
    assert sub._projected == 2
    sub.add_state(c)
    assert sub._projected == 2          # extended lazily, on next use
    extended = sub.projector
    assert sub._projected == 3
    rebuilt = space.span(sub.basis).projector
    assert extended.allclose(rebuilt)
    assert not extended.allclose(before)
    basis = basis_matrix(sub)
    assert np.allclose(sub.to_dense(), basis @ basis.conj().T, atol=1e-9)


def test_copy_does_not_alias_later_additions(rng):
    space = make_space(3)
    a, b, c, d = random_states(space, rng, 4)
    original = space.span([a, b])
    built = original.projector
    clone = original.copy()
    assert clone._projector is built    # the cache is shared
    clone.add_state(c)
    original.add_state(d)
    assert original.dimension == clone.dimension == 3
    assert original.contains_state(d) and not original.contains_state(c)
    assert clone.contains_state(c) and not clone.contains_state(d)
    assert original.projector.allclose(space.span([a, b, d]).projector)
    assert clone.projector.allclose(space.span([a, b, c]).projector)


def test_tail_spans_the_added_directions(rng):
    space = make_space(3)
    a, b, c = random_states(space, rng, 3)
    grown = space.span([a, b, c])
    tail = grown.tail(1)
    assert tail.dimension == 2
    assert tail.basis == grown.basis[1:]
    assert tail.overlap(space.span([a])) <= 1e-9
    assert grown.equals(space.span([a]).join(tail))


def test_project_state_is_the_projector_action(rng):
    space = make_space(3)
    a, b, c = random_states(space, rng, 3)
    sub = space.span([a, b])
    projected = sub.project_state(c).to_numpy().reshape(-1)
    vector = c.to_numpy().reshape(-1)
    assert np.allclose(projected, sub.to_dense() @ vector, atol=1e-9)
