"""The :class:`Subspace` type and its ambient :class:`StateSpace`.

``StateSpace`` fixes the naming convention DESIGN.md describes: states
live on the *ket* indices ``x_i^0`` and projectors pair each ket with a
*bra* index ``y_i^0`` that sorts immediately after it (the interleaved
``x1 y1 x2 y2 ...`` order of the paper's Fig. 1).

``Subspace`` keeps an orthonormal basis of TDD states, maintained by
the Gram-Schmidt procedure of Section IV.B; its projector TDD is built
only when something asks for it.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import CHECK_EPS, GS_EPS
from repro.errors import SubspaceError
from repro.indices.index import Index, wire
from repro.tdd import construction as tc
from repro.tdd.apply import inner_apply
from repro.tdd.manager import TDDManager
from repro.tdd.tdd import TDD

#: machine epsilon of a double
_EPS = float(np.finfo(float).eps)


class StateSpace:
    """The ambient n-qubit space with its canonical ket/bra indices."""

    def __init__(self, manager: TDDManager, num_qubits: int) -> None:
        self.manager = manager
        self.num_qubits = num_qubits
        self.kets = [wire(q, 0) for q in range(num_qubits)]
        self.bras = [Index(f"y{q}_0", qubit=q, time=0)
                     for q in range(num_qubits)]
        self._ket_levels: Optional[Tuple[int, ...]] = None

    @property
    def dimension(self) -> int:
        """``2^n``, the dimension of the whole space."""
        return 2 ** self.num_qubits

    # ------------------------------------------------------------------
    def ket_of(self, qubit: int) -> Index:
        return self.kets[qubit]

    def bra_of(self, qubit: int) -> Index:
        return self.bras[qubit]

    @property
    def ket_levels(self) -> Tuple[int, ...]:
        """The sorted manager levels of the kets, the summed levels of
        every inner product between states."""
        if self._ket_levels is None:
            self._ket_levels = tuple(sorted(self.manager.level(k)
                                            for k in self.kets))
        return self._ket_levels

    def bra_map(self) -> dict:
        """ket -> bra renaming map."""
        return dict(zip(self.kets, self.bras))

    # ------------------------------------------------------------------
    # state constructors
    # ------------------------------------------------------------------
    def basis_state(self, bits: Sequence[int]) -> TDD:
        return tc.basis_state(self.manager, self.kets, bits)

    def product_state(self, single_qubit_vectors: Sequence[np.ndarray]
                      ) -> TDD:
        """Tensor product of per-qubit 2-vectors (|+>, |->, ...)."""
        if len(single_qubit_vectors) != self.num_qubits:
            raise SubspaceError("need one 2-vector per qubit")
        state = tc.scalar(self.manager, 1)
        for qubit, vec in enumerate(single_qubit_vectors):
            vec = np.asarray(vec, dtype=complex).reshape(2)
            part = tc.from_numpy(self.manager, vec, [self.kets[qubit]])
            state = state.product(part)
        return state

    def from_amplitudes(self, amplitudes: np.ndarray) -> TDD:
        """A dense state vector (length 2^n) as a TDD over the kets."""
        arr = np.asarray(amplitudes, dtype=complex).reshape(
            (2,) * self.num_qubits)
        return tc.from_numpy(self.manager, arr, self.kets)

    def to_bra(self, state: TDD) -> TDD:
        """The bra of a ket state: conjugate + ket->bra renaming."""
        return state.conj().rename(self.bra_map())

    # ------------------------------------------------------------------
    def zero_subspace(self) -> "Subspace":
        return Subspace(self)

    def span(self, states: Iterable[TDD]) -> "Subspace":
        """The span of arbitrary TDD states over the kets."""
        out = Subspace(self)
        for state in states:
            out.add_state(state)
        return out

    def __repr__(self) -> str:
        return f"StateSpace(qubits={self.num_qubits})"


class Subspace:
    """A subspace as an orthonormal TDD basis; the projector is lazy.

    Only the basis is kept up to date: every inner product reads it
    directly through the scalar kernel walk, which conjugates the bra
    side as it goes.  The projector ``P = sum_i |v_i><v_i|`` is built on
    first use and extended incrementally when vectors were added since
    the last build, so Gram-Schmidt-heavy work such as a reachability
    fixpoint never materialises it.
    """

    def __init__(self, space: StateSpace) -> None:
        self.space = space
        self.basis: List[TDD] = []
        #: estimated loss of orthogonality of the basis (see add_state)
        self._drift = 0.0
        #: the projector over the first ``_projected`` basis vectors,
        #: or ``None`` before the first use of :attr:`projector`
        self._projector: Optional[TDD] = None
        self._projected = 0

    @classmethod
    def _from_orthonormal(cls, space: StateSpace, basis: List[TDD],
                          drift: float) -> "Subspace":
        out = cls(space)
        out.basis = basis
        out._drift = drift
        return out

    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def manager(self) -> TDDManager:
        return self.space.manager

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        """Does the basis span the whole space?"""
        return len(self.basis) == self.space.dimension

    @property
    def projector(self) -> TDD:
        """The projector tensor ``P[bra, ket]`` (built on first use)."""
        if self._projector is None:
            self._projector = tc.zero(
                self.manager, list(self.space.bras) + list(self.space.kets))
        if self._projected < len(self.basis):
            to_bras = dict(zip(self.space.kets, self.space.bras))
            projector = self._projector
            for vector in self.basis[self._projected:]:
                projector = projector + vector.rename(
                    to_bras).product(vector.conj())
            self._projector = projector
            self._projected = len(self.basis)
        return self._projector

    def _coefficient(self, i: int, state: TDD) -> complex:
        """``<v_i|state>``."""
        return inner_apply(self.manager, self.basis[i].root, state.root,
                           self.space.ket_levels)

    def _check_state(self, state: TDD) -> None:
        if set(state.indices) != set(self.space.kets):
            raise SubspaceError("state must live on the ket indices")

    # ------------------------------------------------------------------
    def project_state(self, state: TDD) -> TDD:
        """``P |state>`` as ``sum_i <v_i|state> v_i``."""
        self._check_state(state)
        result = tc.zero(self.manager, list(self.space.kets))
        for i, vector in enumerate(self.basis):
            coefficient = self._coefficient(i, state)
            if coefficient != 0:
                result = result + vector.scaled(coefficient)
        return result

    def _norm2(self, state: TDD) -> float:
        """``<state|state>``."""
        return abs(inner_apply(self.manager, state.root, state.root,
                               self.space.ket_levels))

    def _residual(self, state: TDD) -> TDD:
        """Modified Gram-Schmidt: ``r <- r - <v_i|r> v_i`` over the basis."""
        residual = state
        for i, vector in enumerate(self.basis):
            coefficient = self._coefficient(i, residual)
            if coefficient != 0:
                residual = residual + vector.scaled(-coefficient)
        return residual

    def add_state(self, state: TDD, tol: float = GS_EPS) -> Optional[TDD]:
        """One Gram-Schmidt step (paper, Section IV.B).

        A state ``s`` is dependent when its residual against the basis
        has ``|r| <= tol * max(1, |s|)``: absolute for image states
        (``|s| <= 1``), relative for larger inputs.  The step first
        screens with inner products alone: the Pythagorean estimate
        ``|s|^2 - sum_i |<v_i|s>|^2`` of ``|r|^2`` rejects a dependent
        state without building any residual TDD.  A state that passes
        the screen gets the full modified Gram-Schmidt residual
        (:meth:`_residual`), which is normalised and appended to the
        basis unless the same rule rejects it.  Returns the new basis
        vector, or ``None`` when the state was already contained, which
        a full basis decides with no inner product at all.

        The estimate assumes an orthonormal basis, and a vector
        normalised from a residual much shorter than its state is off
        by about ``eps * |s| / |r|`` (Bjorck 1994).  When that drift
        would exceed ``tol**2``, the resolution of the rule itself
        (``|s| / |r| > tol**2 / eps``, about 45), the residual gets a
        second modified Gram-Schmidt pass, which leaves it orthogonal
        to the basis to about ``eps``.  The screen is used only while
        the drift of the vectors kept so far stays within ``tol**2``;
        after that, every step on a non-empty basis takes the full path.
        """
        self._check_state(state)
        if self.is_full():
            return None
        norm2 = self._norm2(state)
        floor = tol * tol * max(1.0, norm2)
        if not self.basis or self._drift <= tol * tol:
            estimate = norm2 - sum(abs(self._coefficient(i, state)) ** 2
                                   for i in range(len(self.basis)))
            if estimate <= floor:
                return None
        source_norm2, residual, residual_norm2 = norm2, state, norm2
        if self.basis:
            residual = self._residual(state)
            residual_norm2 = self._norm2(residual)
            if residual_norm2 <= floor:
                return None
            if _EPS * (norm2 / residual_norm2) ** 0.5 > tol * tol:
                source_norm2 = residual_norm2
                residual = self._residual(residual)
                residual_norm2 = self._norm2(residual)
                if residual_norm2 <= floor:
                    return None
        self._drift = max(self._drift,
                          _EPS * (source_norm2 / residual_norm2) ** 0.5)
        norm = residual_norm2 ** 0.5
        vector = residual.scaled(1.0 / norm)
        self.basis.append(vector)
        return vector

    # ------------------------------------------------------------------
    def join(self, other: "Subspace") -> "Subspace":
        """``self v other`` — the closed span of the union."""
        if other.space is not self.space:
            raise SubspaceError("subspaces live in different state spaces")
        out = self.copy()
        for state in other.basis:
            out.add_state(state)
        return out

    def copy(self) -> "Subspace":
        """An independent copy sharing the projector built so far."""
        out = Subspace._from_orthonormal(self.space, list(self.basis),
                                         self._drift)
        out._projector = self._projector
        out._projected = self._projected
        return out

    def tail(self, start: int) -> "Subspace":
        """The span of ``basis[start:]`` (already orthonormal, so no
        Gram-Schmidt runs)."""
        return Subspace._from_orthonormal(self.space, self.basis[start:],
                                          self._drift)

    # ------------------------------------------------------------------
    def contains_state(self, state: TDD, tol: float = CHECK_EPS) -> bool:
        norm = state.norm()
        if norm <= tol:
            return True
        residual = state - self.project_state(state)
        return residual.norm() <= tol * norm

    def contains(self, other: "Subspace", tol: float = CHECK_EPS) -> bool:
        return all(self.contains_state(v, tol) for v in other.basis)

    def equals(self, other: "Subspace", tol: float = CHECK_EPS) -> bool:
        return (self.dimension == other.dimension
                and self.contains(other, tol))

    # ------------------------------------------------------------------
    # quantum-logic operations (Birkhoff-von Neumann lattice)
    # ------------------------------------------------------------------
    def complement(self) -> "Subspace":
        """The orthocomplement ``S^perp``.

        Computed by basis-decomposing ``I - P`` (a projector whenever
        ``P`` is one).  Note the result's dimension is ``2^n - dim``,
        so this is only cheap on small systems or near-full subspaces.
        """
        from repro.subspace.projector import basis_decompose
        from repro.tdd import construction as tc
        identity = tc.identity(self.manager, list(self.space.bras),
                               list(self.space.kets))
        return basis_decompose(self.space, identity - self.projector)

    def meet(self, other: "Subspace") -> "Subspace":
        """``S1 ^ S2`` — the lattice meet (subspace intersection).

        Uses De Morgan in the subspace lattice:
        ``S1 ^ S2 = (S1^perp v S2^perp)^perp``.
        """
        if other.space is not self.space:
            raise SubspaceError("subspaces live in different state spaces")
        return self.complement().join(other.complement()).complement()

    def overlap(self, other: "Subspace") -> float:
        """``tr(P1 P2)`` — 0 iff the subspaces are orthogonal.

        For Hermitian projectors ``tr(P1 P2)`` equals the
        Hilbert-Schmidt inner product of the projector tensors.
        """
        if other.space is not self.space:
            raise SubspaceError("subspaces live in different state spaces")
        if self.is_zero() or other.is_zero():
            return 0.0
        value = self.projector.inner(other.projector)
        return float(value.real)

    def is_orthogonal_to(self, other: "Subspace",
                         tol: float = 1e-9) -> bool:
        return self.overlap(other) <= tol

    # ------------------------------------------------------------------
    def to_dense(self) -> "np.ndarray":
        """The projector as a dense 2^n x 2^n matrix (tests only)."""
        n = self.space.num_qubits
        tensor = self.projector.to_numpy()
        # axes are interleaved (bra0? ket0? per qubit) following level
        # order: x_q before y_q by name; to_numpy sorts by level.
        order = self.projector.indices
        bra_axes = [order.index(b) for b in self.space.bras]
        ket_axes = [order.index(k) for k in self.space.kets]
        perm = bra_axes + ket_axes
        matrix = np.transpose(tensor, perm).reshape(2 ** n, 2 ** n)
        return matrix

    def max_basis_nodes(self) -> int:
        """The largest TDD size over basis vectors and the projector."""
        sizes = [v.size() for v in self.basis]
        sizes.append(self.projector.size())
        return max(sizes)

    def __repr__(self) -> str:
        return (f"Subspace(dim={self.dimension}, "
                f"qubits={self.space.num_qubits})")
