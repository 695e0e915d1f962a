"""Dense statevector simulation.

States are ndarrays of shape ``(2,) * n`` (axis *i* = qubit *i*,
big-endian in all flat views).  Gates apply through their full
``operator_matrix`` on the touched qubits, so projectors and scaled
Kraus gates work exactly like unitaries (the norm simply drops).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.gates.gate import Gate
from repro.utils.bitops import int_to_bits


def basis_state_vector(num_qubits: int, bits: Sequence[int]) -> np.ndarray:
    """|bits> as a ``(2,)*n`` array."""
    if len(bits) != num_qubits:
        raise ValueError("bits length must equal qubit count")
    state = np.zeros((2,) * num_qubits, dtype=complex)
    state[tuple(bits)] = 1.0
    return state


def basis_state_from_int(num_qubits: int, value: int) -> np.ndarray:
    return basis_state_vector(num_qubits, int_to_bits(value, num_qubits))


def uniform_state(num_qubits: int) -> np.ndarray:
    """|+...+> — the uniform superposition."""
    state = np.full((2,) * num_qubits, 2 ** (-num_qubits / 2), dtype=complex)
    return state


def apply_gate(state: np.ndarray, gate: Gate, num_qubits: int) -> np.ndarray:
    """Apply ``gate`` to a state (or batch: extra trailing axes allowed)."""
    qubits = gate.qubits
    if not qubits:  # global scalar
        return state * complex(gate.matrix[0, 0])
    k = len(qubits)
    op = gate.operator_matrix().reshape((2,) * (2 * k))
    # Contract op's input axes (the second half) with the state's qubit
    # axes, then move the freshly produced output axes back into place.
    moved = np.tensordot(op, state, axes=(range(k, 2 * k), qubits))
    # ``moved`` has the k output axes first, then the remaining axes in
    # original relative order with the contracted ones removed.
    rest = [ax for ax in range(state.ndim) if ax not in qubits]
    inverse = list(qubits) + rest
    perm = [0] * state.ndim
    for pos, ax in enumerate(inverse):
        perm[ax] = pos
    return np.transpose(moved, perm)


def run_circuit(circuit: QuantumCircuit, state: np.ndarray) -> np.ndarray:
    """Apply every gate of ``circuit`` in order."""
    for gate in circuit.gates:
        state = apply_gate(state, gate, circuit.num_qubits)
    return state


def circuit_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """The full ``2^n x 2^n`` operator matrix of a circuit.

    Despite the name this also works for non-unitary circuits (it is
    simply the product of the gates' operator matrices); it is the
    Kraus-operator matrix of a one-operator quantum operation.
    """
    n = circuit.num_qubits
    dim = 2 ** n
    # Batch-apply to all basis states at once: axes 0..n-1 are the state,
    # the trailing axis indexes the input basis vector.
    batch = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    out = batch
    for gate in circuit.gates:
        out = apply_gate(out, gate, n)
    return out.reshape(dim, dim)
