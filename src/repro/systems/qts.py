"""The :class:`QuantumTransitionSystem` (paper, Definition 2).

A QTS bundles the ambient state space, the initial subspace and a
family of quantum operations.  Constructing one also fixes the global
TDD index order: all ket/bra state indices and every wire index of
every Kraus circuit are registered up front in qubit-major,
time-minor order (each bra right after its ket), so that all diagrams
of one system share a single canonical order.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.errors import SystemError_
from repro.indices.index import Index
from repro.subspace.subspace import StateSpace, Subspace
from repro.systems.operations import QuantumOperation
from repro.tdd.manager import TDDManager
from repro.tdd.tdd import TDD
from repro.utils.stats import StatsRecorder


def _order_key(index: Index):
    # qubit-major, time-minor; the name breaks the x-vs-y (ket-vs-bra)
    # tie so that each bra y_q^0 sorts right after its ket x_q^0.
    return (index.qubit, index.time, index.name)


class QuantumTransitionSystem:
    """``(H, S0, Sigma, T)`` with TDD-backed state space."""

    def __init__(self, num_qubits: int,
                 operations: Sequence[QuantumOperation],
                 manager: Optional[TDDManager] = None,
                 name: str = "qts") -> None:
        operations = list(operations)
        if not operations:
            raise SystemError_("a QTS needs at least one operation")
        for op in operations:
            if op.num_qubits != num_qubits:
                raise SystemError_(
                    f"operation {op.symbol!r} acts on {op.num_qubits} "
                    f"qubits, system has {num_qubits}")
        symbols = [op.symbol for op in operations]
        if len(set(symbols)) != len(symbols):
            raise SystemError_(f"duplicate operation symbols {symbols}")
        self.num_qubits = num_qubits
        self.operations = operations
        self.name = name
        self.manager = manager if manager is not None else TDDManager()
        self.space = StateSpace(self.manager, num_qubits)
        self._register_indices()
        # one-element holder so the adjoint system can share S0 by
        # reference (see the ``initial`` property and :meth:`adjoint`)
        self._initial_cell = [self.space.zero_subspace()]
        #: Named subspaces — the atoms the specification language
        #: resolves (see repro.mc.specs); ``init`` is always available.
        self.named_subspaces: Dict[str, Subspace] = {}
        #: lazily built adjoint system (see :meth:`adjoint`)
        self._adjoint: Optional["QuantumTransitionSystem"] = None
        #: (build shape, circuit) -> (built diagrams, build peak); shared
        #: with the adjoint system (see :meth:`operator`)
        self._operators: Dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    def _register_indices(self) -> None:
        indices = {}
        for ket, bra in zip(self.space.kets, self.space.bras):
            indices[ket.name] = ket
            indices[bra.name] = bra
        for op in self.operations:
            for circuit in op.kraus_circuits:
                for idx in circuit.all_wire_indices():
                    indices.setdefault(idx.name, idx)
        ordered = sorted(indices.values(), key=_order_key)
        self.manager.register_all(ordered)

    # ------------------------------------------------------------------
    # initial-space helpers
    # ------------------------------------------------------------------
    @property
    def initial(self) -> Subspace:
        """The initial subspace S0; populate via set_initial_* helpers.

        Backed by a cell shared with the adjoint system, so replacing
        either side's initial space is seen by both.
        """
        return self._initial_cell[0]

    @initial.setter
    def initial(self, subspace: Subspace) -> None:
        self._initial_cell[0] = subspace

    def set_initial_states(self, states: Iterable[TDD]) -> "QuantumTransitionSystem":
        self.initial = self.space.span(states)
        return self

    def set_initial_basis_states(self, bit_strings: Iterable[Sequence[int]]
                                 ) -> "QuantumTransitionSystem":
        states = [self.space.basis_state(bits) for bits in bit_strings]
        return self.set_initial_states(states)

    # ------------------------------------------------------------------
    # named subspaces (specification atoms)
    # ------------------------------------------------------------------
    _NAME_PATTERN = r"[A-Za-z_][A-Za-z0-9_]*"

    def register_subspace(self, name: str,
                          subspace: Subspace) -> "QuantumTransitionSystem":
        """Register ``subspace`` as the atom ``name`` for spec checking.

        Names must be identifiers (so the spec parser can reference
        them) other than the reserved temporal keywords and ``init``
        (which always denotes the current initial subspace).
        """
        if not re.fullmatch(self._NAME_PATTERN, name):
            raise SystemError_(f"subspace name {name!r} is not an "
                               f"identifier")
        if name in ("AG", "EF", "init"):
            raise SystemError_(f"subspace name {name!r} is reserved")
        if subspace.space is not self.space:
            raise SystemError_(f"subspace {name!r} lives in a different "
                               f"state space")
        self.named_subspaces[name] = subspace
        return self

    def named_subspace(self, name: str) -> Subspace:
        """Look up a registered atom (``init`` = the initial subspace)."""
        if name == "init":
            return self.initial
        try:
            return self.named_subspaces[name]
        except KeyError:
            available = ", ".join(sorted(["init", *self.named_subspaces]))
            raise SystemError_(
                f"model {self.name!r} has no subspace named {name!r}; "
                f"available atoms: {available}") from None

    # ------------------------------------------------------------------
    # the operator cache
    # ------------------------------------------------------------------
    def operator(self, shape: tuple, circuit,
                 build: Callable[[Callable], Any]) -> tuple:
        """The diagrams of ``circuit`` built in ``shape``, built once.

        ``shape`` names how the image method cuts a Kraus circuit (the
        method and its ``k``/``k1``/``k2``); ``build(observer)`` builds
        the diagrams on a miss, calling ``observer`` with every
        intermediate TDD.  Returns ``(diagrams, peak)``, where ``peak``
        is the largest TDD the build produced.  The key holds the
        circuit object itself (circuits hash by identity), so an entry
        keeps its circuit alive and can never be served for another.
        One cache serves every image computer, every check and every
        witness of this system and of its adjoint.
        """
        key = (shape, circuit)
        entry = self._operators.get(key)
        if entry is None:
            peak = StatsRecorder()
            entry = (build(peak.observe_tdd), peak.max_nodes)
            self._operators[key] = entry
        return entry

    # ------------------------------------------------------------------
    # the adjoint system (backward / preimage analysis)
    # ------------------------------------------------------------------
    def adjoint(self) -> "QuantumTransitionSystem":
        """The adjoint system ``(H, S0, Sigma, T^dagger)``.

        Every operation is replaced by its Kraus-dagger adjoint
        (:meth:`~repro.systems.operations.QuantumOperation.adjoint`);
        the manager, the ambient state space, the initial subspace, the
        named-subspace registry and the operator cache (see
        :meth:`operator`) are *shared* with this system, so
        any subspace of this system is directly usable as an initial or
        target set of the adjoint one.  Computing images of the adjoint
        system is preimage computation for this one — the transition
        relation of backward reachability.  The result is cached, and
        ``qts.adjoint().adjoint() is qts``.
        """
        if self._adjoint is None:
            adj = QuantumTransitionSystem(
                self.num_qubits,
                [op.adjoint() for op in self.operations],
                manager=self.manager, name=f"{self.name}~")
            # share the ambient space (and everything denoted in it) so
            # Subspace identity checks hold across the pair; the
            # constructor's freshly built space registers no new index
            # names and is simply discarded
            adj.space = self.space
            adj.named_subspaces = self.named_subspaces
            adj._initial_cell = self._initial_cell
            adj._operators = self._operators
            adj._adjoint = self
            self._adjoint = adj
        return self._adjoint

    # ------------------------------------------------------------------
    @property
    def symbols(self) -> List[str]:
        return [op.symbol for op in self.operations]

    def operation(self, symbol: str) -> QuantumOperation:
        for op in self.operations:
            if op.symbol == symbol:
                return op
        raise SystemError_(f"no operation named {symbol!r}")

    def all_kraus_circuits(self) -> List:
        """Every Kraus circuit of every operation — the set K of Alg. 1."""
        out = []
        for op in self.operations:
            out.extend(op.kraus_circuits)
        return out

    def __repr__(self) -> str:
        return (f"QuantumTransitionSystem({self.name!r}, "
                f"qubits={self.num_qubits}, "
                f"operations={self.symbols}, "
                f"initial_dim={self.initial.dimension})")
