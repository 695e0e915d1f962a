"""The :class:`Gate` value type.

A gate is a (possibly non-unitary) operator applied to a few qubits,
optionally controlled.  The decomposition into controls and a base
matrix is what gives the tensor-network view its *hyper-edges* (paper,
Section V.A): the input and output index of a control wire — and of
every wire of a diagonal gate — are the *same* tensor index, so a gate

* with ``t`` non-diagonal target wires and ``k`` controls is a rank
  ``k + 2t`` tensor,
* that is diagonal is a rank ``k + t`` tensor.

Gates can carry arbitrary matrices: measurement projectors and scaled
Kraus operators (``sqrt(p)·I``) are ordinary gates, which is how
dynamic and noisy circuits (paper, Sections III.A.2–3) are modelled.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import CircuitError
from repro.gates import matrices as gm
from repro.indices.index import Index
from repro.tdd.manager import TDDManager
from repro.tdd.node import Edge
from repro.tdd.tdd import TDD
from repro.tensor.dense import DenseTensor


class Gate:
    """An operator on ``targets``, conditioned on ``controls``.

    Parameters
    ----------
    name:
        Display name (``"h"``, ``"cx"``, ...).
    targets:
        Qubits the base ``matrix`` acts on (row/column order is
        big-endian in ``targets``).
    matrix:
        ``2^t x 2^t`` complex matrix, ``[output, input]``; need not be
        unitary.
    controls:
        Control qubits; the base matrix applies when every control
        qubit carries its ``control_states`` bit, otherwise identity.
    control_states:
        Per-control activation bit (default: all 1).  A 0 entry is an
        anti-control (open circle), used e.g. by the quantum-walk
        decrement.
    diagonal:
        Exploit diagonality of ``matrix`` (single index per target
        wire).  Auto-detected when ``None``.
    """

    __slots__ = ("name", "targets", "controls", "control_states", "matrix",
                 "diagonal")

    def __init__(self, name: str, targets: Sequence[int],
                 matrix: np.ndarray,
                 controls: Sequence[int] = (),
                 control_states: Optional[Sequence[int]] = None,
                 diagonal: Optional[bool] = None) -> None:
        targets = tuple(targets)
        controls = tuple(controls)
        matrix = np.asarray(matrix, dtype=complex)
        dim = 2 ** len(targets)
        if matrix.shape != (dim, dim):
            raise CircuitError(f"gate {name!r}: matrix shape {matrix.shape} "
                               f"does not match {len(targets)} targets")
        if control_states is None:
            control_states = (1,) * len(controls)
        control_states = tuple(control_states)
        if len(control_states) != len(controls):
            raise CircuitError("control_states length mismatch")
        if any(bit not in (0, 1) for bit in control_states):
            raise CircuitError("control_states must be bits")
        all_qubits = controls + targets
        if len(set(all_qubits)) != len(all_qubits):
            raise CircuitError(f"gate {name!r}: duplicate qubits "
                               f"{all_qubits}")
        if diagonal is None:
            diagonal = len(targets) > 0 and gm.is_diagonal(matrix)
        self.name = name
        self.targets = targets
        self.controls = controls
        self.control_states = control_states
        self.matrix = matrix
        self.diagonal = bool(diagonal)

    # ------------------------------------------------------------------
    @property
    def qubits(self) -> Tuple[int, ...]:
        """All touched qubits, controls first."""
        return self.controls + self.targets

    @property
    def num_targets(self) -> int:
        return len(self.targets)

    @property
    def is_multi_qubit(self) -> bool:
        return len(self.qubits) > 1

    @property
    def is_scalar(self) -> bool:
        """True for the zero-qubit global-scalar gate (Kraus weights)."""
        return not self.targets and not self.controls

    @property
    def advances_wire(self) -> dict:
        """Map qubit -> True when the gate consumes/produces distinct
        indices on that wire (False for controls and diagonal wires)."""
        out = {q: False for q in self.controls}
        for q in self.targets:
            out[q] = not self.diagonal
        return out

    # ------------------------------------------------------------------
    def operator_matrix(self) -> np.ndarray:
        """The full matrix on ``self.qubits`` (controls expanded)."""
        k = len(self.controls)
        t = len(self.targets)
        dim = 2 ** (k + t)
        out = np.eye(dim, dtype=complex)
        if k == 0:
            return self.matrix.copy()
        active = 0
        for bit in self.control_states:
            active = (active << 1) | bit
        block = slice(active * 2 ** t, (active + 1) * 2 ** t)
        out[block, block] = self.matrix
        return out

    def adjoint(self) -> "Gate":
        """The Hermitian adjoint (dagger) of this gate."""
        return Gate(self.name + "_dg", self.targets, self.matrix.conj().T,
                    controls=self.controls,
                    control_states=self.control_states,
                    diagonal=self.diagonal)

    # ------------------------------------------------------------------
    # tensor construction
    # ------------------------------------------------------------------
    def to_tdd(self, manager: TDDManager,
               control_indices: Sequence[Index],
               target_in: Sequence[Index],
               target_out: Sequence[Index]) -> TDD:
        """Build the gate tensor as a TDD.

        For diagonal gates ``target_in`` must equal ``target_out`` (the
        circuit layer reuses the wire index).  The diagram is built
        directly from the gate's entries by a bottom-up walk over its
        sorted levels (see :meth:`_root_edge`): no dense tensor and no
        intermediate diagram is made, so wide multi-controlled gates
        stay linear in their control count.

        The manager's gate table returns the same handle for a gate of
        equal content on equal indices until the next
        :meth:`~repro.tdd.manager.TDDManager.collect`.
        """
        self._check_wiring(control_indices, target_in, target_out)
        control_indices = tuple(control_indices)
        slots = (tuple(target_in) if self.diagonal
                 else tuple(target_out) + tuple(target_in))
        key = (self.matrix.tobytes(), self.matrix.shape,
               self.control_states, self.diagonal,
               tuple(idx.name for idx in control_indices),
               tuple(idx.name for idx in target_in),
               tuple(idx.name for idx in target_out))
        table = manager.gate_table
        tdd = table.get(key)
        if tdd is None:
            root = self._root_edge(manager, control_indices, slots)
            tdd = table[key] = TDD(manager, root, control_indices + slots)
        return tdd

    def _root_edge(self, manager: TDDManager,
                   control_indices: Tuple[Index, ...],
                   slots: Tuple[Index, ...]) -> Edge:
        """The gate diagram, built level by level from the bottom up.

        ``slots`` are the target indices: outputs then inputs, or the
        shared wire indices of a diagonal gate.  The state below a
        level is ``(every control so far matched, target bits so
        far)``; a leaf is ``U[out, in]`` when every control matched and
        the identity entry otherwise.  Only states reachable from the
        root are built, so every node made is part of the result.
        """
        # (level, control bit or None, target slot or None), top down
        walk = sorted(
            [(manager.register(idx), bit, None)
             for idx, bit in zip(control_indices, self.control_states)]
            + [(manager.register(idx), None, slot)
               for slot, idx in enumerate(slots)],
            key=lambda entry: entry[0])
        t = len(self.targets)
        # what each walked target level adds to the row and the column
        row_col = []
        for _level, _bit, slot in walk:
            if slot is not None:
                weight = 1 << (t - 1 - slot % t)
                row_col.append(
                    (weight if self.diagonal or slot < t else 0,
                     weight if self.diagonal or slot >= t else 0))
        layer = {}
        for matched in ((True, False) if self.controls else (True,)):
            for bits in itertools.product((0, 1), repeat=len(row_col)):
                row = sum(r for b, (r, _c) in zip(bits, row_col) if b)
                col = sum(c for b, (_r, c) in zip(bits, row_col) if b)
                if matched:
                    value = self.matrix[row, col]
                else:
                    value = 1 if row == col else 0
                layer[matched, bits] = manager.scalar_edge(value)
        targets_above = len(row_col)
        controls_above = len(self.controls)
        for level, bit, _slot in reversed(walk):
            if bit is None:
                targets_above -= 1
            else:
                controls_above -= 1
            below = layer
            layer = {}
            # a failed match is only reachable below some control
            for matched in ((True, False) if controls_above else (True,)):
                for bits in itertools.product((0, 1),
                                              repeat=targets_above):
                    if bit is None:
                        low = below[matched, bits + (0,)]
                        high = below[matched, bits + (1,)]
                    else:
                        low = below[matched and bit == 0, bits]
                        high = below[matched and bit == 1, bits]
                    layer[matched, bits] = manager.make_node(level, low,
                                                             high)
        return layer[True, ()]

    def to_dense(self, control_indices: Sequence[Index],
                 target_in: Sequence[Index],
                 target_out: Sequence[Index]) -> DenseTensor:
        """Build the gate tensor densely (reference backend).

        Axis layout: controls, then target outputs, then target inputs
        (diagonal gates have one axis per target).
        """
        self._check_wiring(control_indices, target_in, target_out)
        k = len(self.controls)
        t = len(self.targets)
        if t == 0:
            value = complex(self.matrix[0, 0])
            if k == 0:
                return DenseTensor(np.array(value), ())
            arr = np.ones((2,) * k, dtype=complex)
            arr[tuple(self.control_states)] = value
            return DenseTensor(arr, list(control_indices))
        if self.diagonal:
            arr = np.ones((2,) * (k + t), dtype=complex)
            diag = np.diag(self.matrix).reshape((2,) * t)
            for cbits in itertools.product((0, 1), repeat=k):
                if tuple(cbits) == self.control_states or k == 0:
                    arr[cbits] = diag
            indices = list(control_indices) + list(target_in)
            return DenseTensor(arr, indices)
        arr = np.zeros((2,) * (k + 2 * t), dtype=complex)
        eye = np.eye(2 ** t, dtype=complex).reshape((2,) * (2 * t))
        block = self.matrix.reshape((2,) * (2 * t))
        for cbits in itertools.product((0, 1), repeat=k):
            arr[cbits] = block if tuple(cbits) == self.control_states else eye
        indices = list(control_indices) + list(target_out) + list(target_in)
        return DenseTensor(arr, indices)

    # ------------------------------------------------------------------
    def _check_wiring(self, control_indices: Sequence[Index],
                      target_in: Sequence[Index],
                      target_out: Sequence[Index]) -> None:
        if len(control_indices) != len(self.controls):
            raise CircuitError(f"gate {self.name!r}: expected "
                               f"{len(self.controls)} control indices")
        if len(target_in) != len(self.targets):
            raise CircuitError(f"gate {self.name!r}: expected "
                               f"{len(self.targets)} target input indices")
        if self.diagonal:
            if list(target_in) != list(target_out):
                raise CircuitError(f"gate {self.name!r} is diagonal: "
                                   f"target_in must equal target_out")
        else:
            if len(target_out) != len(self.targets):
                raise CircuitError(f"gate {self.name!r}: expected "
                                   f"{len(self.targets)} target output "
                                   f"indices")

    def __repr__(self) -> str:
        parts = [f"Gate({self.name!r}, targets={self.targets}"]
        if self.controls:
            parts.append(f", controls={self.controls}")
            if any(s == 0 for s in self.control_states):
                parts.append(f", control_states={self.control_states}")
        return "".join(parts) + ")"
