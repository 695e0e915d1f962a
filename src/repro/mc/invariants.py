"""Subspace property checks built on image computation.

These are the checks the paper's case studies perform: invariance
``T(S) = S`` for the Grover subspace (Section III.A.1), image equality
against an expected subspace for the bit-flip corrector (III.A.2) and
image containment for the noisy walk (III.A.3).
"""

from __future__ import annotations

from typing import Optional

from repro.image.engine import compute_image
from repro.subspace.subspace import Subspace
from repro.systems.qts import QuantumTransitionSystem


def image_of(qts: QuantumTransitionSystem,
             subspace: Optional[Subspace] = None,
             config=None) -> Subspace:
    """``T(S)`` under a :class:`~repro.mc.config.CheckerConfig`."""
    return compute_image(qts, subspace, config).subspace


def invariant_holds(image: Subspace, subspace: Subspace,
                    strict: bool = False) -> bool:
    """The invariance comparison on an already-computed image.

    Shared by the method-level entry points here and the backend-aware
    :class:`~repro.mc.checker.ModelChecker`, so the semantics cannot
    drift between the two.
    """
    if strict:
        return image.equals(subspace)
    return subspace.contains(image)


def is_invariant(qts: QuantumTransitionSystem,
                 subspace: Optional[Subspace] = None,
                 config=None, strict: bool = False) -> bool:
    """``T(S) <= S`` (or ``T(S) = S`` when ``strict``)."""
    if subspace is None:
        subspace = qts.initial
    image = image_of(qts, subspace, config)
    return invariant_holds(image, subspace, strict)


def image_equals(qts: QuantumTransitionSystem, expected: Subspace,
                 subspace: Optional[Subspace] = None,
                 config=None) -> bool:
    """``T(S) = expected``."""
    image = image_of(qts, subspace, config)
    return image.equals(expected)


def image_contained_in(qts: QuantumTransitionSystem, bound: Subspace,
                       subspace: Optional[Subspace] = None,
                       config=None) -> bool:
    """``T(S) <= bound`` (safety: one step never leaves ``bound``)."""
    image = image_of(qts, subspace, config)
    return bound.contains(image)
