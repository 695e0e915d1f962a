"""Standard gate matrices.

All matrices are small dense ndarrays indexed ``[output, input]``.
Non-unitary matrices (measurement projectors, scaled Kraus operators)
are first-class citizens: the paper's quantum operations are general
completely-positive maps, not just unitaries.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2_INV = 1.0 / math.sqrt(2.0)

I = np.eye(2, dtype=complex)  # noqa: E741 -- the identity matrix's one true name
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) * SQRT2_INV
S = np.array([[1, 0], [0, 1j]], dtype=complex)
T = np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)
SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)

#: Measurement projectors onto |0><0| and |1><1|.
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)

SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=complex)


def rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0],
                     [0, np.exp(0.5j * theta)]], dtype=complex)


def phase(theta: float) -> np.ndarray:
    """The phase gate diag(1, e^{i theta}) (QFT's controlled rotation)."""
    return np.array([[1, 0], [0, np.exp(1j * theta)]], dtype=complex)


def is_diagonal(matrix: np.ndarray, tol: float = 1e-12) -> bool:
    return bool(np.allclose(matrix, np.diag(np.diag(matrix)), atol=tol))


def is_unitary(matrix: np.ndarray, tol: float = 1e-9) -> bool:
    dim = matrix.shape[0]
    return bool(np.allclose(matrix @ matrix.conj().T, np.eye(dim), atol=tol))
