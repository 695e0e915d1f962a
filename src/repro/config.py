"""Global numeric configuration for the repro package.

Tensor decision diagrams use edge weights as unique-table keys, so equal
amplitudes must be identical floats: each manager's weight table
(:mod:`repro.tdd.weights`) snaps every normalised weight component to a
representative within :data:`WEIGHT_TOL`.  All tolerances used anywhere
in the package live here so that they can be tuned in one place.
"""

from __future__ import annotations

#: Distance within which two normalised weight components share one
#: representative in a manager's weight table (absolute).  1e-12 keeps
#: double-precision round-off noise out of the canonical form while
#: preserving every amplitude that occurs in the paper's benchmark
#: circuits; node counts on the benchmark models are the same for any
#: value from 1e-13 to 1e-10.
WEIGHT_TOL: float = 1e-12

#: Magnitude below which a complex weight is treated as exactly zero.
WEIGHT_EPS: float = 1e-10

#: Gram-Schmidt dependence threshold (paper, Section IV.B): a state
#: ``s`` whose residual against the basis has ``|r| <= GS_EPS * max(1,
#: |s|)`` already lies in the subspace.  The rule is absolute for image
#: states (``|s| <= 1``, Kraus families are trace non-increasing) and
#: relative for larger inputs, the shape of the dense backend's rank cut.
#: The value equals :data:`CHECK_EPS`.  On the benchmark fixpoints the
#: Pythagorean estimate ``|s|^2 - sum_i |<v_i|s>|^2`` of a dependent
#: state reads at most 5.6e-16 * |s|^2, and every independent one at
#: least 0.25 * |s|^2, so ``GS_EPS**2`` = 1e-14 screens every dependent
#: state before any residual TDD is built.  A state that passes the
#: screen gets the classical Gram-Schmidt residual ``s - sum_i c_i v_i``
#: from the same coefficients, and a second pass when its loss bound
#: ``(eps + drift) * |s| / |r|`` exceeds ``GS_EPS**2``, the resolution
#: of the rule itself (see :meth:`repro.subspace.subspace.Subspace.
#: add_state`).
GS_EPS: float = 1e-7

#: Tolerance for comparing subspace projectors / amplitudes in checks.
CHECK_EPS: float = 1e-7
