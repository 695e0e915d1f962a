"""The :class:`Subspace` type and its ambient :class:`StateSpace`.

``StateSpace`` fixes the package's index naming convention: states
live on the *ket* indices ``x_i^0`` and projectors pair each ket with a
*bra* index ``y_i^0`` that sorts immediately after it (the interleaved
``x1 y1 x2 y2 ...`` order of the paper's Fig. 1).

``Subspace`` keeps an orthonormal basis of TDD states, maintained by
the Gram-Schmidt procedure of Section IV.B in its classical form with
re-orthogonalisation: every coefficient of a residual is read from the
state itself, the residual ``s - sum_i c_i v_i`` is one n-ary
linear-combination walk, and a second pass runs only when the loss
bound of :meth:`Subspace.add_state` asks for it.  The projector TDD
is built only when something asks for it.  Vectors that are already
orthonormal (a decoded store entry, a Householder completion) are
adopted after a Gram-matrix check instead of being orthogonalised
again.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import CHECK_EPS, GS_EPS
from repro.errors import SubspaceError
from repro.indices.index import Index, wire
from repro.tdd import construction as tc
from repro.tdd.apply import inner_apply
from repro.tdd.manager import TDDManager
from repro.tdd.slicing import largest_entry
from repro.tdd.tdd import TDD, linear_combination

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

    @property
    def ket_levels(self) -> Tuple[int, ...]:
        """The sorted manager levels of the kets, the summed levels of
        every inner product between states."""
        if self._ket_levels is None:
            self._ket_levels = tuple(sorted(self.manager.level(k)
                                            for k in self.kets))
        return self._ket_levels

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

    # ------------------------------------------------------------------
    def zero_subspace(self) -> "Subspace":
        return Subspace(self)

    def span(self, states: Iterable[TDD]) -> "Subspace":
        """The span of arbitrary TDD states over the kets."""
        out = Subspace(self)
        for state in states:
            out.add_state(state)
        return out

    def adopt(self, vectors: Sequence[TDD]) -> "Subspace":
        """The span of ``vectors``, taken as the basis when orthonormal.

        The Gram matrix is read with the scalar inner walk.  When every
        entry lies within ``GS_EPS**2`` of the identity, the vectors
        become the basis as they are, in order, and the largest
        deviation measured becomes the drift that
        :meth:`Subspace.add_state` screens against.  Any other input
        (a scaled, duplicated or non-orthogonal vector) is spanned by
        Gram-Schmidt, as :meth:`span` does.
        """
        vectors = list(vectors)
        if any(set(v.indices) != set(self.kets) for v in vectors):
            return self.span(vectors)
        levels = self.ket_levels
        limit = GS_EPS * GS_EPS
        deviation = 0.0
        for i, left in enumerate(vectors):
            for j in range(i, len(vectors)):
                entry = inner_apply(self.manager, left.root,
                                    vectors[j].root, levels)
                deviation = max(deviation,
                                abs(entry - 1 if i == j else entry))
                if deviation > limit:
                    return self.span(vectors)
        return Subspace._from_orthonormal(self, vectors, deviation)

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
        #: loss of orthogonality of the basis, estimated or measured
        #: (see add_state)
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

    def screens(self, tol: float = GS_EPS) -> bool:
        """Does :meth:`add_state` reject on coefficients alone?

        Only while the basis is within ``tol**2`` of orthonormal: its
        drift plus ``2 * eps`` for the rounding of the inner walks that
        measured it.  Like the rounding losses in :meth:`add_state`, the
        allowance is per walk, not scaled by the qubit count: that
        worst case would pass ``tol**2`` itself from 22 qubits on.
        """
        return self._drift + 2 * _EPS <= tol * tol

    @property
    def projector(self) -> TDD:
        """The projector tensor ``P[bra, ket]`` (built on first use)."""
        if self._projector is None:
            self._projector = tc.zero(
                self.manager, list(self.space.bras) + list(self.space.kets))
        if self._projected < len(self.basis):
            to_bras = dict(zip(self.space.kets, self.space.bras))
            terms = [(1, self._projector)]
            terms.extend((1, vector.rename(to_bras).product(vector.conj()))
                         for vector in self.basis[self._projected:])
            self._projector = linear_combination(self.manager, terms)
            self._projected = len(self.basis)
        return self._projector

    def coefficients(self, state: TDD) -> List[complex]:
        """``[<v_i|state>]``, one scalar walk per basis vector."""
        manager, levels = self.manager, self.space.ket_levels
        return [inner_apply(manager, vector.root, state.root, levels)
                for vector in self.basis]

    def combine(self, coefficients: Sequence[complex]) -> TDD:
        """``sum_i c_i v_i`` over the first ``len(coefficients)`` basis
        vectors, in one linear-combination walk."""
        return linear_combination(self.manager,
                                  list(zip(coefficients, self.basis)),
                                  self.space.kets)

    def _check_state(self, state: TDD) -> None:
        if set(state.indices) != set(self.space.kets):
            raise SubspaceError("state must live on the ket indices")

    # ------------------------------------------------------------------
    def project_state(self, state: TDD) -> TDD:
        """``P |state>`` as ``sum_i <v_i|state> v_i``, in one walk."""
        self._check_state(state)
        return self.combine(self.coefficients(state))

    def _norm2(self, state: TDD) -> float:
        """``<state|state>``."""
        return abs(inner_apply(self.manager, state.root, state.root,
                               self.space.ket_levels))

    def residual(self, state: TDD,
                 coefficients: Optional[Sequence[complex]] = None) -> TDD:
        """``state - sum_i c_i v_i``, one classical Gram-Schmidt pass.

        ``c_i = <v_i|state>`` unless the caller has them already.  All
        coefficients are read from ``state`` and the sum is formed in
        one linear-combination walk.
        """
        self._check_state(state)
        if coefficients is None:
            coefficients = self.coefficients(state)
        terms = [(1, state)]
        terms.extend((-coefficient, vector)
                     for coefficient, vector in zip(coefficients,
                                                    self.basis))
        return linear_combination(self.manager, terms, self.space.kets)

    def distance(self, state: TDD) -> float:
        """``|state - P state|``, the norm of one classical Gram-Schmidt
        residual (:meth:`residual`; absolute: not scaled by
        ``|state|``)."""
        return self._norm2(self.residual(state)) ** 0.5

    def add_state(self, state: TDD, tol: float = GS_EPS) -> Optional[TDD]:
        """One Gram-Schmidt step (paper, Section IV.B).

        A state ``s`` is dependent when its residual against the basis
        has ``|r| <= tol * max(1, |s|)``: absolute for image states
        (``|s| <= 1``), relative for larger inputs.  The step reads the
        coefficients ``c_i = <v_i|s>`` and first screens with them
        alone: the Pythagorean estimate ``|s|^2 - sum_i |c_i|^2`` of
        ``|r|^2`` rejects a dependent state without building any
        residual TDD.  A state that passes the screen gets the classical
        Gram-Schmidt residual ``r = s - sum_i c_i v_i`` from the same
        coefficients, in one walk (:meth:`residual`); it is normalised
        and appended to the basis unless the same rule rejects it.
        Returns the new basis vector, or ``None`` when the state was
        already contained, which a full basis decides with no inner
        product at all.

        One pass leaves the kept vector ``r / |r|`` off the basis by
        about ``(eps + drift) * |s| / |r|``: ``eps`` from rounding
        (Bjorck 1994), and ``drift``, the basis's own loss of
        orthogonality, carried in by coefficients all read from ``s``.
        When that bound exceeds ``tol**2``, the resolution of the rule
        itself (``|s| / |r|`` above about 22 on a basis off by
        ``eps``), the residual gets a second pass, which leaves it
        orthogonal to the basis to about ``eps`` ("twice is enough":
        Giraud, Langou and Rozloznik, Comput. Math. Appl. 2005), as far
        as the weight table resolves it: a correction below
        ``WEIGHT_TOL`` relative to a node's weights snaps back onto the
        first pass's weights.  So the
        drift records each kept vector's rounding loss ``eps * |r_0| /
        |r|`` of its last pass from ``r_0``, or the measured ``max_i
        |<v_i|v>|`` of the kept vector ``v`` (``d`` more inner walks)
        when that is larger.  The measurement is what keeps the drift
        honest: a single-pass vector also inherits ``drift * |s| /
        |r|`` from the basis, and states kept from residuals a quarter
        of their norms compound that to past ``tol**2`` in five steps,
        while recording the inherited bound instead would compound it
        on every kept vector.  The screen is used only while the drift
        stays within ``tol**2`` (:meth:`screens`); after that, every
        step on a non-empty basis builds the residual.
        """
        self._check_state(state)
        if self.is_full():
            return None
        norm2 = self._norm2(state)
        floor = tol * tol * max(1.0, norm2)
        source_norm2, residual, residual_norm2 = norm2, state, norm2
        if not self.basis:
            if norm2 <= floor:
                return None
        else:
            coefficients = self.coefficients(state)
            if (self.screens(tol)
                    and norm2 - sum(abs(c) ** 2 for c in coefficients)
                    <= floor):
                return None
            residual = self.residual(state, coefficients)
            residual_norm2 = self._norm2(residual)
            if residual_norm2 <= floor:
                return None
            loss = (_EPS + self._drift) * (norm2 / residual_norm2) ** 0.5
            if loss > tol * tol:
                source_norm2 = residual_norm2
                residual = self.residual(residual)
                residual_norm2 = self._norm2(residual)
                if residual_norm2 <= floor:
                    return None
        drift = _EPS * (source_norm2 / residual_norm2) ** 0.5
        vector = residual.scaled(1.0 / residual_norm2 ** 0.5)
        if self.basis:
            drift = max([drift] + [abs(c) for c in self.coefficients(vector)])
        self._drift = max(self._drift, drift)
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
        """Is ``|state - P state| <= tol * |state|`` (one residual walk)?"""
        norm = state.norm()
        if norm <= tol:
            return True
        return self.residual(state).norm() <= tol * norm

    def contains(self, other: "Subspace", tol: float = CHECK_EPS) -> bool:
        return all(self.contains_state(v, tol) for v in other.basis)

    def equals(self, other: "Subspace", tol: float = CHECK_EPS) -> bool:
        return (self.dimension == other.dimension
                and self.contains(other, tol))

    # ------------------------------------------------------------------
    # quantum-logic operations (Birkhoff-von Neumann lattice)
    # ------------------------------------------------------------------
    def complement(self) -> "Subspace":
        """The orthocomplement ``S^perp``, by Householder completion.

        Each basis vector ``v_i`` in turn is carried through the
        reflections so far, ``x = H_{i-1}...H_1 v_i``, and picks as its
        pivot ``p_i`` a computational basis index of largest ``|x[p]|``
        (one memoised walk, :func:`~repro.tdd.slicing.largest_entry`).
        The reflection ``H_i y = y - (2/|u_i|^2) <u_i|y> u_i`` with
        ``u_i = x + e^{i arg x[p_i]} |x| |p_i>`` (no cancellation) maps
        ``x`` onto ``|p_i>``, so ``H_1...H_d |k>`` for every ``k``
        outside the pivots is an orthonormal basis of ``S^perp``
        (Golub & Van Loan, *Matrix Computations*, Section 5.1).  A
        reflection whose ``<u_i|y>`` is exactly 0 adds nothing, which
        keeps a target aligned with the computational basis exact.
        No projector is built; the completed vectors, in lexicographic
        order of ``k``, go through :meth:`StateSpace.adopt`.
        """
        space, manager = self.space, self.manager
        levels = space.ket_levels
        kets = sorted(space.kets, key=manager.level)
        reflections: List[Tuple[TDD, float]] = []
        pivots = set()

        def reflect(state: TDD, order: Iterable[Tuple[TDD, float]]) -> TDD:
            for u, scale in order:
                overlap = inner_apply(manager, u.root, state.root, levels)
                if overlap != 0:
                    state = state + u.scaled(-scale * overlap)
            return state

        for vector in self.basis:
            x = reflect(vector, reflections)
            assignment, entry = largest_entry(x.root)
            pivot = tuple(assignment.get(manager.level(k), 0) for k in kets)
            if pivot in pivots:
                raise SubspaceError("Householder pivot repeated: the "
                                    "basis is not orthonormal")
            pivots.add(pivot)
            norm = self._norm2(x) ** 0.5
            magnitude = abs(entry)
            u = x + tc.basis_state(manager, kets, pivot).scaled(
                entry / magnitude * norm)
            # 2 / |u|^2, with |u|^2 = 2 |x| (|x| + |x[p]|)
            reflections.append((u, 1.0 / (norm * (norm + magnitude))))
        completed = [reflect(tc.basis_state(manager, kets, bits),
                             reversed(reflections))
                     for bits in itertools.product((0, 1), repeat=len(kets))
                     if bits not in pivots]
        return space.adopt(completed)

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

    def __repr__(self) -> str:
        return (f"Subspace(dim={self.dimension}, "
                f"qubits={self.space.num_qubits})")
