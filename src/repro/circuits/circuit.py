"""The :class:`QuantumCircuit` container.

A circuit is an ordered list of :class:`~repro.gates.gate.Gate`
instances on ``num_qubits`` qubits.  Measurement projectors and scaled
Kraus operators are ordinary gates, so one circuit describes one Kraus
operator of a quantum operation (paper, Section III.A); unitary
circuits are the special case with unitary gates only.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CircuitError
from repro.gates import library as gl
from repro.gates.gate import Gate
from repro.indices.index import Index
from repro.circuits.wires import GateWiring, wire_circuit, wire_indices


class QuantumCircuit:
    """An ordered gate list on a fixed set of qubits."""

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits < 1:
            raise CircuitError("a circuit needs at least one qubit")
        self.num_qubits = num_qubits
        self.name = name
        self.gates: List[Gate] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def append(self, gate: Gate) -> "QuantumCircuit":
        for q in gate.qubits:
            if not 0 <= q < self.num_qubits:
                raise CircuitError(f"gate {gate.name!r} touches qubit {q} "
                                   f"outside 0..{self.num_qubits - 1}")
        self.gates.append(gate)
        return self

    def extend(self, gates: Iterable[Gate]) -> "QuantumCircuit":
        for gate in gates:
            self.append(gate)
        return self

    # fluent helpers -----------------------------------------------------
    def h(self, q: int) -> "QuantumCircuit":
        return self.append(gl.h(q))

    def x(self, q: int) -> "QuantumCircuit":
        return self.append(gl.x(q))

    def y(self, q: int) -> "QuantumCircuit":
        return self.append(gl.y(q))

    def z(self, q: int) -> "QuantumCircuit":
        return self.append(gl.z(q))

    def s(self, q: int) -> "QuantumCircuit":
        return self.append(gl.s(q))

    def t(self, q: int) -> "QuantumCircuit":
        return self.append(gl.t(q))

    def sx(self, q: int) -> "QuantumCircuit":
        return self.append(gl.sx(q))

    def rx(self, theta: float, q: int) -> "QuantumCircuit":
        return self.append(gl.rx(theta, q))

    def ry(self, theta: float, q: int) -> "QuantumCircuit":
        return self.append(gl.ry(theta, q))

    def rz(self, theta: float, q: int) -> "QuantumCircuit":
        return self.append(gl.rz(theta, q))

    def p(self, theta: float, q: int) -> "QuantumCircuit":
        return self.append(gl.p(theta, q))

    def cx(self, c: int, t: int) -> "QuantumCircuit":
        return self.append(gl.cx(c, t))

    def cz(self, c: int, t: int) -> "QuantumCircuit":
        return self.append(gl.cz(c, t))

    def cp(self, theta: float, c: int, t: int) -> "QuantumCircuit":
        return self.append(gl.cp(theta, c, t))

    def ccx(self, c1: int, c2: int, t: int) -> "QuantumCircuit":
        return self.append(gl.ccx(c1, c2, t))

    def cnx(self, controls: Sequence[int], t: int,
            control_states: Optional[Sequence[int]] = None
            ) -> "QuantumCircuit":
        return self.append(gl.cnx(controls, t, control_states))

    def swap(self, a: int, b: int) -> "QuantumCircuit":
        return self.append(gl.swap(a, b))

    def proj(self, q: int, outcome: int) -> "QuantumCircuit":
        return self.append(gl.proj(q, outcome))

    def scalar(self, value: complex) -> "QuantumCircuit":
        return self.append(gl.scalar(value))

    def matrix_gate(self, name: str, targets: Sequence[int],
                    matrix: np.ndarray) -> "QuantumCircuit":
        return self.append(gl.matrix_gate(name, targets, matrix))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_gates(self) -> int:
        return len(self.gates)

    def multi_qubit_gates(self) -> List[Gate]:
        return [g for g in self.gates if g.is_multi_qubit]

    def depth(self) -> int:
        """Circuit depth under the usual as-soon-as-possible schedule."""
        level = [0] * self.num_qubits
        depth = 0
        for gate in self.gates:
            if not gate.qubits:
                continue
            start = max(level[q] for q in gate.qubits)
            for q in gate.qubits:
                level[q] = start + 1
            depth = max(depth, start + 1)
        return depth

    def is_unitary(self) -> bool:
        """True when every gate matrix is unitary (no projectors/Kraus)."""
        from repro.gates.matrices import is_unitary
        return all(is_unitary(g.matrix) for g in self.gates)

    def count_ops(self) -> dict:
        out: dict = {}
        for gate in self.gates:
            out[gate.name] = out.get(gate.name, 0) + 1
        return out

    # ------------------------------------------------------------------
    # wiring / indices
    # ------------------------------------------------------------------
    def wirings(self) -> Tuple[List[GateWiring], List[Index], List[Index]]:
        """Index-assign every gate; see :func:`wire_circuit`."""
        return wire_circuit(self.num_qubits, self.gates)

    def all_wire_indices(self) -> List[Index]:
        """Every index of the circuit's tensor network, qubit-major."""
        wirings, inputs, _outputs = self.wirings()
        return wire_indices(wirings, inputs)

    # ------------------------------------------------------------------
    # composition
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "QuantumCircuit":
        out = QuantumCircuit(self.num_qubits, name or self.name)
        out.gates = list(self.gates)
        return out

    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """This circuit followed by ``other`` (same qubit count)."""
        if other.num_qubits != self.num_qubits:
            raise CircuitError("qubit count mismatch in compose")
        out = self.copy(f"{self.name};{other.name}")
        out.extend(other.gates)
        return out

    def inverse(self) -> "QuantumCircuit":
        """The adjoint circuit (gates reversed and daggered)."""
        out = QuantumCircuit(self.num_qubits, self.name + "_dg")
        out.extend(g.adjoint() for g in reversed(self.gates))
        return out

    # ------------------------------------------------------------------
    def to_text(self) -> str:
        """A one-gate-per-line description (stable, diffable)."""
        lines = [f"qubits {self.num_qubits}"]
        for gate in self.gates:
            parts = [gate.name]
            if gate.controls:
                ctl = ",".join(
                    f"{'~' if s == 0 else ''}{q}"
                    for q, s in zip(gate.controls, gate.control_states))
                parts.append(f"ctrl[{ctl}]")
            parts.append(",".join(str(q) for q in gate.targets))
            lines.append(" ".join(p for p in parts if p))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"QuantumCircuit({self.name!r}, qubits={self.num_qubits}, "
                f"gates={self.num_gates})")
