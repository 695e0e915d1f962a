"""Shared test helpers: spaces, oracles, random tensors."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.indices.index import Index
from repro.indices.order import IndexOrder
from repro.sim.subspace_dense import DenseSubspace
from repro.subspace.subspace import StateSpace, Subspace
from repro.systems.qts import QuantumTransitionSystem
from repro.tdd.manager import TDDManager


def fresh_manager(index_names: Sequence[str] = ()) -> TDDManager:
    """A manager with the given indices pre-registered in list order."""
    return TDDManager(IndexOrder([Index(n) for n in index_names]))


def make_space(num_qubits: int) -> StateSpace:
    """A state space with interleaved ket/bra registration."""
    manager = TDDManager()
    space = StateSpace(manager, num_qubits)
    for ket, bra in zip(space.kets, space.bras):
        manager.register(ket)
        manager.register(bra)
    return space


def random_tensor(rng: np.random.Generator, rank: int,
                  complex_valued: bool = True) -> np.ndarray:
    shape = (2,) * rank
    arr = rng.normal(size=shape)
    if complex_valued:
        arr = arr + 1j * rng.normal(size=shape)
    return arr


def dense_image_oracle(qts: QuantumTransitionSystem,
                       subspace: Subspace = None) -> DenseSubspace:
    """The image computed entirely with dense linear algebra."""
    if subspace is None:
        subspace = qts.initial
    kraus = []
    for op in qts.operations:
        kraus.extend(op.kraus_matrices())
    vectors = [v.to_numpy().reshape(-1) for v in subspace.basis]
    dense = DenseSubspace.from_vectors(vectors, 2 ** qts.num_qubits)
    return dense.image(kraus)


def dense_reach_oracle(qts: QuantumTransitionSystem,
                       direction: str = "forward", bound: int = 0,
                       initial: Subspace = None
                       ) -> Tuple[DenseSubspace, List[int]]:
    """The reachable space by whole-space closure, with dense algebra.

    Iterates ``S <- S v T(S)`` (``T`` the preimage when ``direction``
    is ``"backward"``) from ``initial`` (default ``S0``) until the
    dimension stops growing, or for at most ``bound`` rounds when
    ``bound`` is positive.  Every round re-images the whole space, so
    this reference shares neither the TDD engine nor the frontier
    schedule with the code under test.  Returns the closure and the
    dimension after each round, starting with ``dim S0`` — the same
    ladder as ``ReachabilityTrace.dimensions``.
    """
    if initial is None:
        initial = qts.initial
    kraus = [matrix for op in qts.operations
             for matrix in op.kraus_matrices()]
    current = subspace_to_dense(initial)
    dimensions = [current.dimension]
    rounds = bound if bound > 0 else 2 ** qts.num_qubits
    for _ in range(rounds):
        step = (current.preimage(kraus) if direction == "backward"
                else current.image(kraus))
        grown = current.join(step)
        dimensions.append(grown.dimension)
        if grown.dimension == current.dimension:
            break
        current = grown
    return current, dimensions


def subspace_to_dense(subspace: Subspace) -> DenseSubspace:
    dim = 2 ** subspace.space.num_qubits
    vectors = [v.to_numpy().reshape(-1) for v in subspace.basis]
    return DenseSubspace.from_vectors(vectors, dim)


def assert_subspace_matches_dense(subspace: Subspace,
                                  expected: DenseSubspace) -> None:
    got = subspace_to_dense(subspace)
    assert got.dimension == expected.dimension, (
        f"dimension {got.dimension} != expected {expected.dimension}")
    assert got.equals(expected), "projectors differ"


PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)
ZERO = np.array([1, 0], dtype=complex)
ONE = np.array([0, 1], dtype=complex)
