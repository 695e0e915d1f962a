"""Subspaces of the Hilbert space, represented through TDDs.

A subspace is stored as an orthonormal basis of TDD state vectors
together with its projector TDD (paper, Section IV).  The package
provides the paper's two core subroutines: basis decomposition of a
projector via leftmost non-zero columns (Section IV.A) and the
Gram-Schmidt join of subspaces (Section IV.B).
"""

from repro.subspace.subspace import Subspace, StateSpace
from repro.subspace.projector import apply_projector, basis_decompose
from repro.subspace.join import join, orthonormalize

__all__ = ["Subspace", "StateSpace", "apply_projector", "basis_decompose",
           "join", "orthonormalize"]
