"""Dense reference answers for the benchmark's correctness gate.

Every Kraus circuit is applied gate by gate to dense column vectors
(:func:`repro.sim.statevector.run_circuit`) and every reachable space is
closed by an SVD rank cut, so the oracle shares none of the TDD,
Gram-Schmidt or projector code it checks; it only reads the model's
circuits and input states.  It runs outside every timed region.
"""

from __future__ import annotations

import numpy as np
from repro.sim.statevector import run_circuit

#: singular values below this are dropped when closing a span
RANK_TOL = 1e-8
#: a component longer than this leaves (or meets) a subspace
EVENT_TOL = 1e-7
#: largest entry-wise projector difference still counted as equal
MATCH_TOL = 1e-6


def vector(state) -> np.ndarray:
    """A TDD ket state as a dense vector, qubit 0 most significant."""
    axes = np.argsort([index.qubit for index in state.indices])
    return np.transpose(state.to_numpy(), axes).reshape(-1)


def columns(subspace) -> np.ndarray:
    """The basis of a TDD subspace as dense columns."""
    dim = 2 ** subspace.space.num_qubits
    if not subspace.basis:
        return np.zeros((dim, 0), dtype=complex)
    return np.stack([vector(v) for v in subspace.basis], axis=1)


def orth(matrix: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the column span."""
    if matrix.shape[1] == 0:
        return matrix
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    return u[:, s > RANK_TOL]


def projector(basis: np.ndarray) -> np.ndarray:
    return basis @ basis.conj().T


def apply(circuit, matrix: np.ndarray) -> np.ndarray:
    """``E @ matrix`` for the Kraus operator ``E`` of ``circuit``."""
    n = circuit.num_qubits
    batch = matrix.reshape((2,) * n + (matrix.shape[1],))
    return run_circuit(circuit, batch).reshape(2 ** n, matrix.shape[1])


def image(circuits, basis: np.ndarray) -> np.ndarray:
    return orth(np.concatenate([apply(c, basis) for c in circuits], axis=1))


def layers(circuits, start: np.ndarray) -> list:
    """The cumulative fixpoint layers ``S_0 <= S_1 <= ...`` to saturation."""
    out = [orth(start)]
    while True:
        current = out[-1]
        grown = orth(np.concatenate([current, image(circuits, current)],
                                    axis=1))
        if grown.shape[1] == current.shape[1]:
            return out
        out.append(grown)


def kraus(qts, backward: bool = False) -> list:
    ops = [op.adjoint() if backward else op for op in qts.operations]
    return [circuit for op in ops for circuit in op.kraus_circuits]


def components(basis: np.ndarray, target: np.ndarray,
               inside: bool) -> np.ndarray:
    """The span of the basis' components inside (or outside) ``target``."""
    projected = projector(target) @ basis
    parts = projected if inside else basis - projected
    keep = np.linalg.norm(parts, axis=0) > EVENT_TOL
    return orth(parts[:, keep])


def reach(qts) -> np.ndarray:
    """The forward reachable space from the initial space."""
    return layers(kraus(qts), columns(qts.initial))[-1]


def check_always(qts, atom: str) -> dict:
    """The forward answers of ``AG atom``.

    The reachable space, the verdict, the escaping directions (the
    witness of a violation) and the length of the shortest
    counterexample: the first layer that leaves the target.
    """
    target = orth(columns(qts.named_subspace(atom)))
    forward = layers(kraus(qts), columns(qts.initial))
    reached = forward[-1]
    escaping = components(reached, target, inside=False)
    holds = escaping.shape[1] == 0
    trace_length = None if holds else next(
        k for k, layer in enumerate(forward)
        if components(layer, target, inside=False).shape[1])
    return {"holds": holds, "trace_length": trace_length,
            "reached": reached, "dimension": reached.shape[1],
            "witness": escaping}


def check_always_backward(qts, atom: str) -> dict:
    """The backward answers of ``AG atom``.

    The space that can reach the complement of the target under the
    adjoint Kraus family, and the initial directions inside it (the
    witness of a violation).
    """
    target = orth(columns(qts.named_subspace(atom)))
    event = orth(np.eye(target.shape[0]) - projector(target))
    backward = layers(kraus(qts, backward=True), event)[-1]
    initial = orth(columns(qts.initial))
    return {"dimension": backward.shape[1],
            "witness": components(backward, initial, inside=True)}


def same_space(dense_projector: np.ndarray, basis: np.ndarray) -> bool:
    """Is ``dense_projector`` the projector onto span(``basis``)?"""
    return bool(np.max(np.abs(dense_projector - projector(basis)),
                       initial=0.0) <= MATCH_TOL)


def replay_escapes(qts, trace, atom: str) -> bool:
    """Replay a witness trace densely: does it leave ``atom``?

    The trace's first state must lie in the initial space; applying the
    recorded operations in order must reach a span with a component
    outside the target.
    """
    initial = orth(columns(qts.initial))
    target = orth(columns(qts.named_subspace(atom)))
    state = vector(trace.states[0]).reshape(-1, 1)
    if np.linalg.norm(state - projector(initial) @ state) > MATCH_TOL:
        return False
    current = orth(state)
    for symbol in trace.symbols:
        current = image(qts.operation(symbol).kraus_circuits, current)
    return components(current, target, inside=False).shape[1] > 0
