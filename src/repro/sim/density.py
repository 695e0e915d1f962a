"""Dense density-matrix evolution and support computation.

A quantum operation is a set of Kraus circuits (paper, Section III.A);
here each circuit is flattened to its full matrix and applied as
``rho' = sum_j E_j rho E_j^dagger``.  ``support_basis`` extracts an
orthonormal basis of ``supp(rho)`` — the subspace the paper's image
semantics is defined through (Definition 1).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.sim.statevector import circuit_unitary


def channel_matrices(kraus_circuits: Sequence[QuantumCircuit]
                     ) -> List[np.ndarray]:
    """The dense Kraus matrices of a list of Kraus circuits."""
    return [circuit_unitary(c) for c in kraus_circuits]


def apply_kraus(rho: np.ndarray,
                kraus: Sequence[np.ndarray]) -> np.ndarray:
    """``sum_j E_j rho E_j^dagger``."""
    out = np.zeros_like(rho)
    for e in kraus:
        out += e @ rho @ e.conj().T
    return out


def support_basis(rho: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis (columns) of ``supp(rho)``.

    ``rho`` must be Hermitian positive semi-definite; eigenvectors with
    eigenvalue above ``tol`` span the support.
    """
    values, vectors = np.linalg.eigh(rho)
    keep = values > tol
    return vectors[:, keep]
