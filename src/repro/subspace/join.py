"""Standalone join/orthonormalisation helpers (paper, Section IV.B)."""

from __future__ import annotations

from typing import Iterable

from repro.config import GS_EPS
from repro.subspace.subspace import StateSpace, Subspace
from repro.tdd.tdd import TDD


def orthonormalize(space: StateSpace, states: Iterable[TDD],
                   tol: float = GS_EPS) -> Subspace:
    """Gram-Schmidt span of arbitrary (dependent, unnormalised) states."""
    out = Subspace(space)
    for state in states:
        out.add_state(state, tol=tol)
    return out


def join(first: Subspace, second: Subspace) -> Subspace:
    """``S1 v S2`` — convenience wrapper over :meth:`Subspace.join`."""
    return first.join(second)
